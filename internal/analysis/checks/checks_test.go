package checks_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/checks"
)

// Each fixture demonstrates at least one true positive (a `// want` line) and
// one suppressed finding (a //pagoda:allow line with no want), so these tests
// pin both halves of every analyzer's contract.

func TestWallclock(t *testing.T)  { analysistest.Run(t, checks.Wallclock, "testdata/wallclock") }
func TestRandsource(t *testing.T) { analysistest.Run(t, checks.Randsource, "testdata/randsource") }
func TestMaprange(t *testing.T)   { analysistest.Run(t, checks.Maprange, "testdata/maprange") }
func TestFloatorder(t *testing.T) { analysistest.Run(t, checks.Floatorder, "testdata/floatorder") }
func TestRawgo(t *testing.T)      { analysistest.Run(t, checks.Rawgo, "testdata/rawgo") }
func TestSyncprim(t *testing.T)   { analysistest.Run(t, checks.Syncprim, "testdata/syncprim") }
func TestGoroutine(t *testing.T)  { analysistest.Run(t, checks.Goroutine, "testdata/goroutine") }

// TestTaintflow runs the interprocedural check over a multi-package fixture
// module: sources live one function and one package away from every sink.
func TestTaintflow(t *testing.T) { analysistest.Run(t, checks.Taintflow, "testdata/taintflow") }

// TestUnused runs the reachability check over a fixture module with one
// package per root kind: the root package's API, main and init, an
// un-imported package's API, bench/, package-level tables, interface
// methods and implicit ones. Unreferenced functions and methods, and those
// only a _test.go file uses (the loader skips tests), are reported; a
// suppression holds one back and an allow that suppresses nothing is stale.
// lib/fields.go covers the field rule: fields only assigned (=, op=),
// incremented or set in a composite literal, or read only by a test, are
// reported; json-tagged, generic, map-key, compared, embedded, bench-read
// and root-API fields are not, and an allow holds one back.
func TestUnused(t *testing.T) { analysistest.Run(t, checks.Unused, "testdata/unused") }

// TestTaintflowBeyondSyntacticChecks pins the tentpole claim: run through
// analysis.Check over the whole fixture module, the per-file analyzers find
// NOTHING in the taintflow fixture's sink package (no banned call appears in
// that file), while the interprocedural check reports every multi-hop flow
// with a source→sink path at least three steps long.
func TestTaintflowBeyondSyntacticChecks(t *testing.T) {
	pkgs, err := analysis.Load("testdata/taintflow", "fixture", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var as []*analysis.Analyzer
	for _, a := range []*analysis.Analyzer{checks.Wallclock, checks.Randsource, checks.Maprange, checks.Taintflow} {
		all := *a
		all.AppliesTo = nil
		as = append(as, &all)
	}
	kept, suppressed := analysis.Check(pkgs, as)
	var findings []analysis.Finding
	for _, f := range append(kept, suppressed...) {
		if f.Check == "taintflow" {
			findings = append(findings, f)
		} else if filepath.Base(f.Pos.Filename) == "taint.go" {
			t.Errorf("syntactic check %s unexpectedly catches the sink package: %v", f.Check, f)
		}
	}
	if len(findings) < 5 {
		t.Fatalf("taintflow reported %d findings on the fixture module, want >= 5:\n%v",
			len(findings), findings)
	}
	multiHop := 0
	for _, f := range findings {
		if len(f.Path) < 2 {
			t.Errorf("finding %s has path %v, want at least source and sink", f, f.Path)
		}
		if len(f.Path) >= 4 {
			multiHop++ // source, >=2 call hops, sink
		}
	}
	if multiHop < 3 {
		t.Errorf("only %d findings carry a multi-hop (>=4 step) path, want >= 3", multiHop)
	}
}

// TestScopes pins which packages each analyzer binds to: the wall-clock,
// RNG and map-order rules cover the twelve simulation packages (including
// internal/cluster, internal/tenancy, internal/autoscale and
// internal/prng); rawgo and goroutine cover everything except
// internal/sim; syncprim covers the simulation packages minus internal/sim
// itself.
func TestScopes(t *testing.T) {
	cases := []struct {
		rel                                                                     string
		wallclock, randsource, maprange, floatorder, rawgo, syncprim, goroutine bool
	}{
		{"internal/sim", true, true, true, true, false, false, false},
		{"internal/sim/subpkg", true, true, true, true, false, false, false},
		{"internal/gpu", true, true, true, true, true, true, true},
		{"internal/core", true, true, true, true, true, true, true},
		{"internal/runners", true, true, true, true, true, true, true},
		{"internal/cluster", true, true, true, true, true, true, true},
		{"internal/tenancy", true, true, true, true, true, true, true},
		{"internal/autoscale", true, true, true, true, true, true, true},
		{"internal/prng", true, true, true, true, true, true, true},
		{"internal/serve", false, false, false, true, true, false, true},
		{"internal/harness", false, false, false, true, true, false, true},
		{"internal/trace", false, false, false, true, true, false, true},
		{"cmd/pagodabench", false, false, false, false, true, false, true},
		{"", false, false, false, false, true, false, true}, // module root (pagoda.go)
	}
	for _, c := range cases {
		got := map[string]bool{
			"wallclock":  checks.Wallclock.AppliesTo(c.rel),
			"randsource": checks.Randsource.AppliesTo(c.rel),
			"maprange":   checks.Maprange.AppliesTo(c.rel),
			"floatorder": checks.Floatorder.AppliesTo(c.rel),
			"rawgo":      checks.Rawgo.AppliesTo(c.rel),
			"syncprim":   checks.Syncprim.AppliesTo(c.rel),
			"goroutine":  checks.Goroutine.AppliesTo(c.rel),
		}
		want := map[string]bool{
			"wallclock": c.wallclock, "randsource": c.randsource,
			"maprange": c.maprange, "floatorder": c.floatorder,
			"rawgo": c.rawgo, "syncprim": c.syncprim,
			"goroutine": c.goroutine,
		}
		for name := range want {
			if got[name] != want[name] {
				t.Errorf("%s.AppliesTo(%q) = %v, want %v", name, c.rel, got[name], want[name])
			}
		}
	}
}

// TestAllRegistered guards the registry against an analyzer being written but
// never wired into pagodavet: every analyzer has a name and a Run.
func TestAllRegistered(t *testing.T) {
	names := map[string]bool{}
	for _, a := range checks.All() {
		if a.Name == "" || a.Run == nil {
			t.Errorf("analyzer %q missing name or Run", a.Name)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
	}
	for _, want := range []string{"wallclock", "randsource", "maprange", "floatorder", "rawgo", "syncprim", "goroutine", "taintflow", "unused"} {
		if !names[want] {
			t.Errorf("analyzer %q missing from All()", want)
		}
	}
}
