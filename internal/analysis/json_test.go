package analysis

import (
	"encoding/json"
	"go/token"
	"strings"
	"testing"
)

// TestJSONRoundTrip pins the icash-vet/1 schema: findings marshal with
// root-relative forward-slash paths, parse back identically, and an
// empty report still carries the findings array.
func TestJSONRoundTrip(t *testing.T) {
	root := "/repo"
	findings := []Finding{
		{
			Pos:      token.Position{Filename: "/repo/internal/core/iopath.go", Line: 12, Column: 3},
			Analyzer: "errclass",
			Message:  "dropped error",
		},
		{
			Pos:      token.Position{Filename: "/repo/internal/server/registry.go", Line: 40, Column: 2},
			Analyzer: "goroutines",
			Message:  "go statement outside the approved concurrency primitives",
		},
	}
	out, err := MarshalFindings(root, findings)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := UnmarshalFindings(out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "icash-vet/1" {
		t.Errorf("schema = %q", rep.Schema)
	}
	if len(rep.Findings) != 2 {
		t.Fatalf("round-tripped %d findings, want 2", len(rep.Findings))
	}
	f := rep.Findings[0]
	if f.File != "internal/core/iopath.go" || f.Line != 12 || f.Col != 3 ||
		f.Analyzer != "errclass" || f.Message != "dropped error" {
		t.Errorf("finding round-tripped as %+v", f)
	}
	if strings.Contains(string(out), "\\") {
		t.Errorf("JSON output contains backslash paths: %s", out)
	}
}

// TestJSONEmptyReport: a clean run emits findings: [], not null, so
// downstream consumers can iterate without a nil check.
func TestJSONEmptyReport(t *testing.T) {
	out, err := MarshalFindings("/repo", nil)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(out, &raw); err != nil {
		t.Fatal(err)
	}
	if string(raw["findings"]) == "null" {
		t.Errorf("empty report marshals findings as null: %s", out)
	}
	rep, err := UnmarshalFindings(out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Findings == nil || len(rep.Findings) != 0 {
		t.Errorf("empty report parsed as %+v", rep)
	}
}

// TestJSONSchemaRejected: unknown schema versions hard-fail instead of
// misparsing.
func TestJSONSchemaRejected(t *testing.T) {
	_, err := UnmarshalFindings([]byte(`{"schema":"icash-vet/999","findings":[]}`))
	if err == nil || !strings.Contains(err.Error(), "unsupported vet JSON schema") {
		t.Errorf("unknown schema accepted (err = %v)", err)
	}
	_, err = UnmarshalFindings([]byte(`{nope`))
	if err == nil {
		t.Error("malformed JSON accepted")
	}
}
