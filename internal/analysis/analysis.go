// Package analysis is the repo-specific static analyzer suite behind
// cmd/icash-vet. It proves, at compile time, the invariants the rest of
// the repository otherwise enforces only at runtime:
//
//   - determinism: no wall-clock time, no math/rand, no unordered map
//     iteration feeding results (detclock, maporder);
//   - clock ownership: only the run-driving layers may mutate the
//     shared sim.Clock (detclock, generalizing the `clockcheck`
//     build-tag runtime assertion in internal/sim);
//   - error discipline: device errors are classified, wrapped with %w,
//     and never silently discarded on I/O paths (errclass);
//   - concurrency containment: simulation packages spawn goroutines
//     only through harness.ForEachPoint and never select (goroutines).
//
// The suite is deliberately stdlib-only (go/ast, go/parser, go/types —
// no golang.org/x/tools) so the module stays go.sum-free. The driver
// in load.go type-checks packages from source, which makes every check
// type-aware: "this ranges over a map", "this expression is an error",
// "this is a *sim.Clock method call" are facts from go/types, not
// guesses from identifier spelling.
//
// Findings print in vet format (file:line:col: analyzer: message) and
// any finding makes icash-vet exit nonzero. A site that is known-good
// can be suppressed with a directive on its line or the line above:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory; a bare directive is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name is the short identifier used in findings and in
	// //lint:ignore directives.
	Name string
	// Doc is a one-paragraph description of the invariant the analyzer
	// proves and why the repository needs it.
	Doc string
	// Run inspects one package and reports findings on pass.
	Run func(pass *Pass)
}

// Catalog returns every analyzer in the suite, in stable order.
func Catalog() []*Analyzer {
	return []*Analyzer{
		DetClock,
		MapOrder,
		ErrClass,
		Goroutines,
		StaleIgnore,
	}
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed source files (tests excluded).
	Files []*ast.File
	// Pkg is the type-checked package. Its Path() is what analyzers
	// scope on (e.g. detclock only fires under icash/internal/).
	Pkg *types.Package
	// Info holds the type-checker's expression and identifier facts.
	Info *types.Info
	// Prog is the module-wide interprocedural view: per-function
	// summaries and the call graph (summary.go). errclass uses it to
	// see past the package under analysis.
	Prog *Program

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Finding is one reported violation.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in vet format.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s",
		f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// sortFindings orders findings by file, line, column, analyzer — the
// stable order icash-vet prints and tests compare against.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// RunAnalyzers applies every analyzer in catalog to pkg and returns the
// raw findings (suppressions not yet applied). prog is the shared
// interprocedural view.
func RunAnalyzers(catalog []*Analyzer, pkg *Package, prog *Program) []Finding {
	var findings []Finding
	for _, a := range catalog {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Prog:     prog,
			findings: &findings,
		}
		a.Run(pass)
	}
	return findings
}

// --- shared type-query helpers used by several analyzers ---

// calleeFunc resolves the function or method a call expression invokes,
// or nil when the callee is not a named function (builtin, func value,
// type conversion).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether call invokes a function named name from the
// package with import path pkgPath.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// isErrorType reports whether t is exactly the built-in error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// isNilExpr reports whether e is the untyped nil constant.
func isNilExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(e)]
	return ok && tv.IsNil()
}

// namedTypePath reports the (package path, type name) of t's core named
// type, unwrapping pointers and aliases; ok is false for unnamed types.
func namedTypePath(t types.Type) (pkgPath, name string, ok bool) {
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := types.Unalias(t).(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", "", false
	}
	return obj.Pkg().Path(), obj.Name(), true
}

// isMethod reports whether fn has a receiver.
func isMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// recvIsSimClock reports whether fn is a method on icash's sim.Clock.
func recvIsSimClock(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	pkgPath, name, ok := namedTypePath(sig.Recv().Type())
	return ok && pkgPath == "icash/internal/sim" && name == "Clock"
}

// declaredWithin reports whether obj's declaration lies inside node.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj != nil && obj.Pos() != token.NoPos &&
		node.Pos() <= obj.Pos() && obj.Pos() < node.End()
}

// baseIdentObj resolves the root identifier object of an lvalue like
// x, x.f, or x[i] — the variable whose storage the expression reaches.
func baseIdentObj(info *types.Info, e ast.Expr) types.Object {
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
