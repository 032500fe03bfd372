package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wile/internal/analysis"
)

// TestKnownBadFixture runs the full multichecker against the known-bad
// fixture package and asserts that every analyzer in the suite fires
// exactly as often as the fixture intends — the integration contract for
// the wile-vet driver. noretain fires twice: once for a direct re-slice
// return and once for aliasing through a local, exercising the flow graph.
// obsguard also fires twice: once for an unguarded recorder hook and once
// for an unguarded frame-provenance hook.
func TestKnownBadFixture(t *testing.T) {
	diags, err := vet(".", []string{"../../internal/analysis/testdata/knownbad"})
	if err != nil {
		t.Fatalf("vet: %v", err)
	}
	counts := make(map[string]int)
	total := 0
	for _, d := range diags {
		t.Logf("diagnostic: %s", d)
		counts[d.Analyzer]++
		total++
	}
	for _, a := range analysis.Analyzers() {
		want := 1
		if a.Name == "noretain" || a.Name == "obsguard" {
			want = 2
		}
		if counts[a.Name] != want {
			t.Errorf("analyzer %s fired %d times, want exactly %d", a.Name, counts[a.Name], want)
		}
	}
	if want := len(analysis.Analyzers()) + 2; total != want {
		t.Errorf("got %d diagnostics, want %d", total, want)
	}
}

// TestKnownBadGolden pins the exact -json diagnostic set for the fixture.
// CI replays the same comparison with the built binary (see ci.yml), so a
// behavior change in any analyzer must update testdata/knownbad.json.
func TestKnownBadGolden(t *testing.T) {
	diags, err := vet(".", []string{"../../internal/analysis/testdata/knownbad"})
	if err != nil {
		t.Fatalf("vet: %v", err)
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatalf("abs: %v", err)
	}
	got, err := json.MarshalIndent(toJSON(root, diags), "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got = append(got, '\n')
	want, err := os.ReadFile("testdata/knownbad.json")
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("diagnostic set drifted from testdata/knownbad.json:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestExplainFlow checks that flow-graph-backed diagnostics carry the
// supporting path that -explain prints: the alias-through-local noretain
// finding must reference the re-slice that established the aliasing.
func TestExplainFlow(t *testing.T) {
	diags, err := vet(".", []string{"../../internal/analysis/testdata/knownbad"})
	if err != nil {
		t.Fatalf("vet: %v", err)
	}
	found := false
	for _, d := range diags {
		if d.Analyzer != "noretain" || len(d.Flow) == 0 {
			continue
		}
		found = true
		for _, s := range d.Flow {
			if s.Pos.Line <= 0 || s.Desc == "" {
				t.Errorf("flow step missing position or description: %+v", s)
			}
		}
	}
	if !found {
		t.Error("no noretain diagnostic carries a flow path; -explain would print nothing")
	}
}

// TestJSONOutput checks the -json wire format: relative slash-separated
// paths, 1-based positions, one object per diagnostic, and a non-null
// empty array for a clean run.
func TestJSONOutput(t *testing.T) {
	diags, err := vet(".", []string{"../../internal/analysis/testdata/knownbad"})
	if err != nil {
		t.Fatalf("vet: %v", err)
	}
	if len(diags) == 0 {
		t.Fatal("fixture produced no diagnostics")
	}
	buf, err := json.Marshal(toJSON(".", diags))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var decoded []jsonDiagnostic
	if err := json.Unmarshal(buf, &decoded); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(decoded) != len(diags) {
		t.Fatalf("got %d JSON diagnostics, want %d", len(decoded), len(diags))
	}
	for _, d := range decoded {
		if d.File == "" || d.Line <= 0 || d.Column <= 0 || d.Analyzer == "" || d.Message == "" {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
		if strings.Contains(d.File, "\\") {
			t.Errorf("path %q not slash-separated", d.File)
		}
		if !strings.Contains(d.File, "knownbad") {
			t.Errorf("path %q does not point into the fixture", d.File)
		}
	}
	// Clean runs must serialize as [], never null, so jq iteration in CI
	// does not need a null guard.
	clean, err := json.Marshal(toJSON(".", nil))
	if err != nil {
		t.Fatalf("marshal empty: %v", err)
	}
	if string(clean) != "[]" {
		t.Errorf("clean run serializes as %s, want []", clean)
	}
}

// TestPatternExpansion checks that ./... expansion skips testdata trees, so
// the fixture violations never fail "make lint" on the real tree.
func TestPatternExpansion(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	paths, err := loader.Expand(".", []string{"../../..."})
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	for _, p := range paths {
		if p == "wile/internal/analysis/testdata/knownbad" {
			t.Errorf("pattern expansion must skip testdata, found %s", p)
		}
	}
	want := map[string]bool{
		"wile":                   false,
		"wile/internal/sim":      false,
		"wile/cmd/wile-vet":      false,
		"wile/examples/farm":     false,
		"wile/internal/analysis": false,
	}
	for _, p := range paths {
		if _, ok := want[p]; ok {
			want[p] = true
		}
	}
	for p, seen := range want {
		if !seen {
			t.Errorf("pattern expansion missed %s (got %d packages)", p, len(paths))
		}
	}
}

// TestPatternExpansionSkipsNestedModules: like the go tool, ./... stops at a
// directory with its own go.mod — the perfbench module is linted (or not)
// as its own module, never as a package of this one.
func TestPatternExpansionSkipsNestedModules(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	paths, err := loader.Expand(".", []string{"../../..."})
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	for _, p := range paths {
		if p == "wile/perfbench" {
			t.Errorf("pattern expansion must skip nested modules, found %s", p)
		}
	}
}
