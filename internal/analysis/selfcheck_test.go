package analysis

import (
	"strings"
	"testing"
)

// TestRepoIsLintClean is the suite's anchor: the repository's own
// source must satisfy every invariant the analyzers prove. A finding
// here means a diff re-broke one of the statically-enforced rules —
// fix the code or add a //lint:ignore with a reason, never weaken the
// analyzer to pass.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Vet(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestIgnoreDirectives pins the suppression contract: a directive
// silences exactly its named analyzer on its own line and the line
// below, malformed directives are themselves findings, and unknown
// analyzer names are rejected.
func TestIgnoreDirectives(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	l.Lenient = true
	pkg, err := l.LoadDir("testdata/src/ignore", "icash/internal/fixtureignore")
	if err != nil {
		t.Fatal(err)
	}
	findings := VetPackage(pkg)
	sortFindings(findings)

	var got []string
	for _, f := range findings {
		got = append(got, f.Analyzer+": "+f.Message)
	}
	assertContains := func(substr string) {
		t.Helper()
		for _, g := range got {
			if strings.Contains(g, substr) {
				return
			}
		}
		t.Errorf("no finding contains %q; got %v", substr, got)
	}
	// The unsuppressed violation survives.
	assertContains("wall-clock call time.Now")
	// The directive naming the wrong analyzer does not silence detclock.
	assertContains("wall-clock call time.Sleep")
	// Malformed directives are findings in their own right.
	assertContains("malformed //lint:ignore")
	assertContains("unknown analyzer nosuch")
	// The wrong-analyzer directive suppressed nothing, so it is stale.
	assertContains("suppresses nothing")
	// Exactly the suppressed violation is absent.
	for _, g := range got {
		if strings.Contains(g, "time.Since") {
			t.Errorf("suppressed finding leaked: %v", g)
		}
	}
}

// TestExpandPatterns pins pattern expansion: ./... covers the module,
// testdata stays invisible, and a direct package path resolves.
func TestExpandPatterns(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := l.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, len(paths))
	for _, p := range paths {
		seen[p] = true
		if strings.Contains(p, "testdata") {
			t.Errorf("testdata package leaked into expansion: %s", p)
		}
	}
	for _, wantPkg := range []string{"icash", "icash/internal/ssd", "icash/internal/analysis", "icash/cmd/icash-vet"} {
		if !seen[wantPkg] {
			t.Errorf("expansion missing %s (got %d packages)", wantPkg, len(paths))
		}
	}
	one, err := l.Expand([]string{"./internal/ssd"})
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0] != "icash/internal/ssd" {
		t.Errorf("direct pattern expanded to %v", one)
	}
}
