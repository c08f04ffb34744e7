// Source invariants that no test observing a run can see: an error
// dropped where every run happens to return nil, a wall-clock read whose
// jitter stays below what the reports print, a map order that matches
// often enough, a goroutine or select that has not raced yet. Each is
// checked over the type-checked source of every non-test package in the
// module (build tags honoured), with the standard library alone.
// DESIGN.md §10 maps every other invariant to the test that owns it.
package icash_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

const modulePath = "icash"

// srcPackage is one type-checked non-test package of the module.
type srcPackage struct {
	path  string
	files []*ast.File
	info  *types.Info
}

var srcFset = token.NewFileSet()

// modulePackages loads the module once for every test in this file.
var modulePackages = sync.OnceValues(func() ([]*srcPackage, error) {
	imp := importer.ForCompiler(srcFset, "source", nil)
	var pkgs []*srcPackage
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		}
		if err != nil {
			return err
		}
		p := &srcPackage{
			path: path.Join(modulePath, filepath.ToSlash(dir)),
			info: &types.Info{
				Uses:  make(map[*ast.Ident]types.Object),
				Types: make(map[ast.Expr]types.TypeAndValue),
			},
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(srcFset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(p.path, srcFset, p.files, p.info); err != nil {
			return err
		}
		pkgs = append(pkgs, p)
		return nil
	})
	return pkgs, err
})

// walk calls visit for every node of every non-test package in the
// module, with the top-level function declaring it (nil outside one).
// Each test also asserts one match the clean tree must have, so a load
// that finds fewer packages fails rather than passing on nothing.
func walk(t *testing.T, visit func(p *srcPackage, fd *ast.FuncDecl, n ast.Node)) {
	pkgs, err := modulePackages()
	if err != nil {
		t.Fatalf("loading the module: %v", err)
	}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, _ := d.(*ast.FuncDecl)
				ast.Inspect(d, func(n ast.Node) bool {
					if n != nil {
						visit(p, fd, n)
					}
					return true
				})
			}
		}
	}
}

// callee returns the declared function or method call invokes, or nil
// (a call through a func value, a conversion, a builtin).
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	id, _ := ast.Unparen(call.Fun).(*ast.Ident)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		id = sel.Sel
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// baseObj returns the variable whose storage e reaches (x in x, x.f,
// x[i] and *x), or nil.
func baseObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.ObjectOf(v)
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// TestNoDroppedErrors: no statement drops, and no assignment or var
// declaration blanks to _, the error result of a function declared in
// the module. Fault injection reaches few of those calls in any one
// test, so a lost error mostly shows only on the run that needed it:
// the scrubber's repair writes, for one, are never failed by a test.
func TestNoDroppedErrors(t *testing.T) {
	errType := types.Universe.Lookup("error").Type()
	exempted := 0
	walk(t, func(p *srcPackage, fd *ast.FuncDecl, n ast.Node) {
		var lhs, rhs []ast.Expr // lhs nil: the results are dropped
		switch s := n.(type) {
		case *ast.ExprStmt:
			rhs = []ast.Expr{s.X}
		case *ast.DeferStmt:
			rhs = []ast.Expr{s.Call}
		case *ast.GoStmt:
			rhs = []ast.Expr{s.Call}
		case *ast.AssignStmt:
			lhs, rhs = s.Lhs, s.Rhs
		case *ast.ValueSpec:
			for _, id := range s.Names {
				lhs = append(lhs, id)
			}
			rhs = s.Values
		}
		for i, x := range rhs {
			call, ok := ast.Unparen(x).(*ast.CallExpr)
			if !ok {
				continue
			}
			fn := callee(p.info, call)
			if fn == nil || fn.Pkg() == nil || (fn.Pkg().Path() != modulePath && !strings.HasPrefix(fn.Pkg().Path(), modulePath+"/")) {
				continue
			}
			res := fn.Type().(*types.Signature).Results()
			for j := 0; j < res.Len(); j++ {
				if !types.Identical(res.At(j).Type(), errType) {
					continue
				}
				at := srcFset.Position(call.Pos())
				if lhs == nil {
					t.Errorf("%s: the error %s returns is dropped", at, fn.FullName())
					continue
				}
				dst := lhs[i] // one call per result: a, b = f(), g()
				if len(rhs) == 1 {
					dst = lhs[j]
				}
				if id, ok := dst.(*ast.Ident); !ok || id.Name != "_" {
					continue
				}
				// The one function allowed to assign a module error to
				// _: in (*fault.Device).tearAndDie the device is dying
				// mid-write, the torn tail is best-effort and there is
				// no caller to surface its failure to.
				if fd != nil && p.path == modulePath+"/internal/fault" && fd.Name.Name == "tearAndDie" {
					exempted++
				} else {
					t.Errorf("%s: the error %s returns is assigned to _", at, fn.FullName())
				}
			}
		}
	})
	if exempted != 2 {
		t.Errorf("saw %d blanked errors in (*fault.Device).tearAndDie, want its 2", exempted)
	}
}

// TestMapRangesOrderInsensitive: a range over a map does nothing whose
// result depends on the order it visits keys. Go randomizes that order,
// and over two keys a run keeps it half the time, so a determinism test
// only sometimes catches a body that prints (the fmt print family,
// Sprint* included), feeds the metrics package (histograms and windows
// are order-sensitive), sums floats into a variable declared outside it
// (float addition is not associative), or appends to a slice declared
// outside it that is not sorted after the range.
func TestMapRangesOrderInsensitive(t *testing.T) {
	// sortedAt holds, per variable, where the module last sorts it.
	sortedAt := make(map[types.Object]token.Pos)
	walk(t, func(p *srcPackage, _ *ast.FuncDecl, n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := callee(p.info, call); fn != nil && fn.Pkg() != nil &&
				(fn.Pkg().Path() == "sort" || fn.Pkg().Path() == "slices" && strings.HasPrefix(fn.Name(), "Sort")) {
				for _, arg := range call.Args {
					sortedAt[baseObj(p.info, arg)] = call.Pos()
				}
			}
		}
	})
	sortedAppends := 0
	walk(t, func(p *srcPackage, _ *ast.FuncDecl, n ast.Node) {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return
		}
		if _, ok := p.info.TypeOf(rng.X).Underlying().(*types.Map); !ok {
			return
		}
		outside := func(obj types.Object) bool {
			return obj != nil && (obj.Pos() < rng.Pos() || obj.Pos() >= rng.End())
		}
		ast.Inspect(rng.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				at := srcFset.Position(n.Pos())
				if fn := callee(p.info, n); fn != nil && fn.Pkg() != nil {
					name := fn.Name()
					switch fn.Pkg().Path() {
					case "fmt":
						for _, prefix := range []string{"Print", "Fprint", "Sprint", "Append"} {
							if strings.HasPrefix(name, prefix) {
								t.Errorf("%s: fmt.%s in a map range prints in map order", at, name)
							}
						}
					case modulePath + "/internal/metrics":
						t.Errorf("%s: %s in a map range observes in map order", at, fn.FullName())
					}
				}
				fun, _ := ast.Unparen(n.Fun).(*ast.Ident)
				if fun == nil || len(n.Args) == 0 || p.info.Uses[fun] != types.Universe.Lookup("append") {
					break
				}
				if obj := baseObj(p.info, n.Args[0]); outside(obj) && sortedAt[obj] < rng.End() {
					t.Errorf("%s: %s collects a map range in map order and is not sorted after it", at, obj.Name())
				} else if outside(obj) {
					sortedAppends++
				}
			case *ast.AssignStmt:
				switch n.Tok {
				case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
					for _, lhs := range n.Lhs {
						b, ok := p.info.TypeOf(lhs).Underlying().(*types.Basic)
						if obj := baseObj(p.info, lhs); ok && b.Info()&types.IsFloat != 0 && outside(obj) {
							t.Errorf("%s: a float sum into %s in a map range depends on map order", srcFset.Position(n.Pos()), obj.Name())
						}
					}
				}
			}
			return true
		})
	})
	if sortedAppends == 0 {
		t.Error("saw no map range collected into a slice sorted after it; the module has several")
	}
}

// wallClockFuncs are the time functions that read or wait on the wall
// clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// TestNoWallClock: nothing under internal/ reads the wall clock.
// Simulated time comes from sim.Clock; a wall-clock offset too small to
// move a printed figure would still break byte-identical runs.
func TestNoWallClock(t *testing.T) {
	elsewhere := 0
	walk(t, func(p *srcPackage, _ *ast.FuncDecl, n ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok {
			return
		}
		fn, _ := p.info.Uses[id].(*types.Func)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !wallClockFuncs[fn.Name()] ||
			fn.Type().(*types.Signature).Recv() != nil {
			return
		}
		if strings.HasPrefix(p.path, modulePath+"/internal/") {
			t.Errorf("%s: time.%s reads the wall clock", srcFset.Position(id.Pos()), fn.Name())
		} else {
			elsewhere++
		}
	})
	// The commands and the benchmark time real runs.
	if elsewhere == 0 {
		t.Error("saw no wall-clock call outside internal/; the commands and the benchmark make several")
	}
}

// TestConcurrencyContained: under internal/, harness.ForEachPoint is the
// one function that starts a goroutine, and nothing selects. Results
// stay byte-identical at any worker count because ForEachPoint gathers
// them by index; a goroutine started elsewhere, or a select that is
// deterministic today (one case and a default), passes every run until
// the day it races.
func TestConcurrencyContained(t *testing.T) {
	spawned := false
	walk(t, func(p *srcPackage, fd *ast.FuncDecl, n ast.Node) {
		if !strings.HasPrefix(p.path, modulePath+"/internal/") {
			return
		}
		switch n.(type) {
		case *ast.GoStmt:
			if fd != nil && p.path == modulePath+"/internal/harness" && fd.Recv == nil && fd.Name.Name == "ForEachPoint" {
				spawned = true
			} else {
				t.Errorf("%s: go statement outside harness.ForEachPoint", srcFset.Position(n.Pos()))
			}
		case *ast.SelectStmt:
			t.Errorf("%s: select under internal/", srcFset.Position(n.Pos()))
		}
	})
	if !spawned {
		t.Error("saw no go statement in harness.ForEachPoint, the one place that starts workers")
	}
}
