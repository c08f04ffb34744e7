package analysis

import (
	"go/types"
	"testing"
)

// loadSummaryFixture mounts the synthetic summary package and builds
// the module-wide Program over it.
func loadSummaryFixture(t *testing.T) (*Package, *Program) {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	l.Lenient = true
	pkg, err := l.LoadDir("testdata/src/summary", "icash/internal/summaryfix")
	if err != nil {
		t.Fatal(err)
	}
	return pkg, NewProgram(l)
}

func lookupFunc(t *testing.T, pkg *Package, name string) *types.Func {
	t.Helper()
	fn, ok := pkg.Types.Scope().Lookup(name).(*types.Func)
	if !ok {
		t.Fatalf("fixture has no function %s", name)
	}
	return fn
}

// TestSummaryDeviceReachability pins DeviceErrorSource's taint
// propagation across a three-deep call chain.
func TestSummaryDeviceReachability(t *testing.T) {
	pkg, prog := loadSummaryFixture(t)
	for _, name := range []string{"leaf", "mid", "top"} {
		if !prog.DeviceErrorSource(lookupFunc(t, pkg, name)) {
			t.Errorf("DeviceErrorSource(%s) = false, want true", name)
		}
	}
	if prog.DeviceErrorSource(lookupFunc(t, pkg, "pure")) {
		t.Error("DeviceErrorSource(pure) = true, want false")
	}
}

// TestSummaryCycleTermination proves the memoized transitive query
// terminates on mutual recursion and resolves to the quiet answer.
func TestSummaryCycleTermination(t *testing.T) {
	pkg, prog := loadSummaryFixture(t)
	for _, name := range []string{"cyclic", "cyclic2"} {
		fn := lookupFunc(t, pkg, name)
		if prog.DeviceErrorSource(fn) {
			t.Errorf("DeviceErrorSource(%s) = true, want false", name)
		}
	}
}

// TestSummaryFacts pins the per-function fact sheet: call sites, the
// direct-device-call mark, error results.
func TestSummaryFacts(t *testing.T) {
	pkg, prog := loadSummaryFixture(t)
	summary := func(name string) *FuncSummary {
		t.Helper()
		s := prog.funcs[lookupFunc(t, pkg, name)]
		if s == nil {
			t.Fatalf("no summary for %s", name)
		}
		return s
	}

	top := summary("top")
	if len(top.Calls) != 1 || top.Calls[0].Name() != "mid" {
		t.Errorf("top's call sites %v, want [mid]", top.Calls)
	}
	if top.DeviceCall {
		t.Error("top.DeviceCall = true: only leaf touches the device directly")
	}
	if leaf := summary("leaf"); !leaf.DeviceCall || !leaf.ReturnsError {
		t.Errorf("leaf = %+v, want a direct device call and an error result", leaf)
	}
	if pure := summary("pure"); pure.DeviceCall || pure.ReturnsError || len(pure.Calls) != 0 {
		t.Errorf("pure = %+v, want an empty fact sheet", pure)
	}
}
