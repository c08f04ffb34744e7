package analysis

// This file is the golden-file fixture harness: each analyzer's test
// loads a package from testdata/src/<analyzer>/ under a chosen import
// path (so path-scoped analyzers fire), runs one analyzer, and
// compares the findings against `// want "substring"` comments in the
// fixture source. Every fixture line that wants a finding must get
// exactly one whose message contains the substring; every finding must
// land on a line that wants it.

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// wantRe matches `// want "..."` markers. The quoted text is a plain
// substring of the expected finding message, not a regexp — fixtures
// stay readable.
var wantRe = regexp.MustCompile(`// want (".*")\s*$`)

// runFixture loads testdata/src/<name> as import path asPath, runs the
// single analyzer, applies //lint:ignore directives, and checks the
// findings against the fixture's want markers.
func runFixture(t *testing.T, a *Analyzer, name, asPath string) {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	// Fixtures may contain deliberately unused imports or other soft
	// type errors alongside the violation under test.
	l.Lenient = true
	dir := filepath.Join("testdata", "src", name)
	pkg, err := l.LoadDir(dir, asPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	findings := applyIgnores(pkg, RunAnalyzers([]*Analyzer{a}, pkg, NewProgram(l)))
	sortFindings(findings)

	wants := parseWants(t, pkg.Fset, pkg)
	matched := make([]bool, len(wants))
	for _, f := range findings {
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != filepath.Base(f.Pos.Filename) || w.line != f.Pos.Line {
				continue
			}
			if !strings.Contains(f.Message, w.substr) {
				t.Errorf("%s: finding %q does not contain wanted substring %q", f, f.Message, w.substr)
			}
			matched[i] = true
			ok = true
			break
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: wanted finding containing %q, got none", w.file, w.line, w.substr)
		}
	}
}

type want struct {
	file   string
	line   int
	substr string
}

// parseWants extracts want markers from the fixture's comments.
func parseWants(t *testing.T, fset *token.FileSet, pkg *Package) []want {
	t.Helper()
	var wants []want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				substr, err := strconv.Unquote(m[1])
				if err != nil {
					t.Fatalf("bad want marker %q: %v", c.Text, err)
				}
				pos := fset.Position(c.Pos())
				wants = append(wants, want{
					file:   filepath.Base(pos.Filename),
					line:   pos.Line,
					substr: substr,
				})
			}
		}
	}
	return wants
}

// TestWantMarkersDoNotLeakIntoFindings guards the harness itself: a
// fixture with no want markers and no violations yields no findings.
func TestWantMarkersDoNotLeakIntoFindings(t *testing.T) {
	for _, a := range Catalog() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Fatalf("catalog entry %+v incomplete", a)
		}
	}
	if len(Catalog()) != 5 {
		t.Fatalf("catalog has %d analyzers, want 5", len(Catalog()))
	}
}

// TestFindingString pins the vet output format tools and CI grep for.
func TestFindingString(t *testing.T) {
	f := Finding{
		Pos:      token.Position{Filename: "x.go", Line: 3, Column: 7},
		Analyzer: "detclock",
		Message:  "msg",
	}
	if got, wantStr := f.String(), "x.go:3:7: detclock: msg"; got != wantStr {
		t.Fatalf("Finding.String() = %q, want %q", got, wantStr)
	}
	_ = fmt.Sprintf("%v", f)
}
