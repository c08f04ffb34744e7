package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural layer of the suite: a module-level
// call graph with one summary per function. Analyzers stay per-package
// (each Run sees one Pass), but every Pass carries the shared *Program,
// whose summaries let errclass see past the function it is walking — to
// the wrapper level where a dropped device error could otherwise hide.
//
// A FuncSummary records what a caller needs to know about a callee
// without re-walking its body: which functions it calls, whether it
// performs a device/station call itself, and whether it returns an
// error. The derived fact that needs the whole graph — "does the error
// this function returns originate at a device?" — is memoized on the
// Program with a cycle guard, so recursion costs nothing and cycles
// resolve to the quiet answer.

// Program is the module-wide state of one vet run: every loaded
// package's function summaries and the memoized DeviceErrorSource
// query over the call graph they induce.
type Program struct {
	// funcs maps each declared function/method to its summary.
	funcs map[*types.Func]*FuncSummary
	// errMemo is DeviceErrorSource's tri-state memo: 0 unvisited,
	// 1 true, 2 false, 3 in progress (resolves false).
	errMemo map[*types.Func]uint8
}

// newProgram returns an empty Program.
func newProgram() *Program {
	return &Program{
		funcs:   make(map[*types.Func]*FuncSummary),
		errMemo: make(map[*types.Func]uint8),
	}
}

// NewProgram returns a Program over every package the loader has
// type-checked so far — analysis targets and the module-internal
// dependencies loading them pulled in. Vet calls it after expanding and
// loading its patterns; fixture tests call it after LoadDir.
func NewProgram(l *Loader) *Program {
	p := newProgram()
	paths := make([]string, 0, len(l.pkgs))
	for path := range l.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		p.addPackage(l.pkgs[path])
	}
	return p
}

// addPackage builds summaries for every function declared in pkg.
func (p *Program) addPackage(pkg *Package) {
	if pkg == nil || pkg.Types == nil {
		return
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			p.funcs[fn] = buildSummary(pkg.Info, fd, fn)
		}
	}
}

// FuncSummary is the per-function fact sheet callers consult instead of
// re-walking the callee's body.
type FuncSummary struct {
	// Calls lists static callees in lexical order, module and stdlib
	// alike; DeviceErrorSource follows the summarized ones.
	Calls []*types.Func
	// DeviceCall reports a direct blocking device/station call (see
	// isDirectDeviceCall) anywhere in the body.
	DeviceCall bool
	// ReturnsError reports whether the signature's results include the
	// error interface.
	ReturnsError bool
}

// buildSummary walks one function body once. Function literals are
// included: a closure's calls belong to the enclosing function's
// footprint (conservative for deferred or scheduled closures, which is
// the safe direction for hazard detection).
func buildSummary(info *types.Info, fd *ast.FuncDecl, fn *types.Func) *FuncSummary {
	s := &FuncSummary{}
	if sig, ok := fn.Type().(*types.Signature); ok {
		res := sig.Results()
		for i := 0; i < res.Len(); i++ {
			if isErrorType(res.At(i).Type()) {
				s.ReturnsError = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee := calleeFunc(info, call); callee != nil {
			s.Calls = append(s.Calls, callee)
		}
		if isDirectDeviceCall(info, call) {
			s.DeviceCall = true
		}
		return true
	})
	return s
}

// --- blocking device/station calls ---

// devicePkgs are the device-model packages: any call into them is a
// (simulated) device operation, the origin that taints an error as a
// device error.
var devicePkgs = map[string]bool{
	"icash/internal/blockdev": true,
	"icash/internal/ssd":      true,
	"icash/internal/hdd":      true,
	"icash/internal/raid":     true,
	"icash/internal/ram":      true,
}

// deviceMethodNames are the block-op method names that mark a call as a
// device operation even through an interface defined elsewhere
// (blockdev.Device embedded in harness systems, server.Backend): the
// static callee then belongs to the defining package, but the dynamic
// callee is a device stack.
var deviceMethodNames = map[string]bool{
	"ReadBlock": true, "WriteBlock": true, "Flush": true,
}

// stationFuncs are the event-engine entry points that advance the
// station timeline: running or stepping the scheduler, admitting work
// to a station, replaying a trace.
var stationFuncs = map[string]bool{
	"Run": true, "Step": true, "Admit": true, "Replay": true,
}

// isDirectDeviceCall reports whether call is, statically, a blocking
// device or station operation: a call into a device-model package, a
// block-op interface method on a module type, or an event-engine
// station call.
func isDirectDeviceCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	if devicePkgs[path] {
		// Pool traffic (GetBlock/PutBlock) and pure classification
		// helpers are not device operations.
		switch fn.Name() {
		case "GetBlock", "PutBlock", "Classify", "ContentCRC":
			return false
		}
		return true
	}
	if path == "icash/internal/sim/event" && stationFuncs[fn.Name()] {
		return true
	}
	if strings.HasPrefix(path, "icash/") && isMethod(fn) && deviceMethodNames[fn.Name()] {
		return true
	}
	return false
}

// DeviceErrorSource reports whether fn returns an error that (possibly
// through summarized wrappers) originates at the device layer: it
// returns error and its body reaches a device call. Dropping such a
// function's error result is dropping a device error, wherever the
// caller lives — the interprocedural extension of errclass.
// Unsummarized callees (stdlib, func values) are assumed not to.
func (p *Program) DeviceErrorSource(fn *types.Func) bool {
	switch p.errMemo[fn] {
	case 1:
		return true
	case 2, 3:
		return false
	}
	s := p.funcs[fn]
	if s == nil || !s.ReturnsError {
		return false
	}
	p.errMemo[fn] = 3
	ans := s.DeviceCall
	for _, c := range s.Calls {
		if ans {
			break
		}
		ans = p.DeviceErrorSource(c)
	}
	if ans {
		p.errMemo[fn] = 1
	} else {
		p.errMemo[fn] = 2
	}
	return ans
}
