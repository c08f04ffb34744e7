package analysis

import (
	"go/ast"
	"strings"
)

// Goroutines proves the concurrency-containment invariant behind the
// repo's determinism story: simulation code under icash/internal/ does
// not hand-roll concurrency. Byte-identical results at any -parallel
// count hold because exactly one place is allowed to spawn goroutines,
// with a reviewed determinism argument: harness.ForEachPoint, the
// blessed fan-out primitive — parallel across experiment points, never
// within a run, results delivered into pre-sized slots (DESIGN.md §8).
//
// Everywhere else under icash/internal/, a go statement or a select is
// a finding: a worker pool beside the harness re-introduces completion-
// order nondeterminism, and a select is scheduling-order dependent by
// design (two ready cases are chosen pseudo-randomly). Code that needs
// fan-out routes through harness.ForEachPoint; code that needs
// timeline concurrency models it as events. cmd/ front-ends (real
// sockets, real signals) are out of scope on purpose.
var Goroutines = &Analyzer{
	Name: "goroutines",
	Doc:  "internal/ packages spawn goroutines only via harness.ForEachPoint and never select",
	Run:  runGoroutines,
}

// goroutineFuncAllow are individually-approved functions in otherwise
// restricted packages: package path -> function name.
var goroutineFuncAllow = map[string]map[string]bool{
	"icash/internal/harness": {"ForEachPoint": true},
}

func runGoroutines(pass *Pass) {
	path := pass.Pkg.Path()
	if !strings.HasPrefix(path, "icash/internal/") {
		return
	}
	allowFuncs := goroutineFuncAllow[path]
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if allowFuncs[fd.Name.Name] && fd.Recv == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					pass.Reportf(n.Pos(),
						"go statement outside the approved concurrency primitives: route fan-out through harness.ForEachPoint (parallel across runs, never within a run) or model it as events")
				case *ast.SelectStmt:
					pass.Reportf(n.Pos(),
						"select in a simulation package: two ready cases resolve in scheduler order, which is nondeterministic — use the event engine's ordered queue instead")
				}
				return true
			})
		}
	}
}
