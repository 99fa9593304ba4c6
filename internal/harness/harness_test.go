package harness

import (
	"math"
	"strings"
	"testing"
)

// mustGet returns the recorded value for key, failing the test if the key was
// never set — reading Values' 0-for-missing would otherwise turn a typo'd key
// into a bogus 0 or NaN ratio.
func mustGet(t *testing.T, r *Report, key string) float64 {
	t.Helper()
	v, ok := r.Values[key]
	if !ok {
		t.Fatalf("%s: value %q was never recorded (have %d keys)", r.ID, key, len(r.Values))
	}
	return v
}

// testParams keeps harness runs quick while preserving shapes.
func testParams() Params { return Params{Tasks: 192, SMMs: 8, Seed: 1, Misbehave: 1} }

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); g != 4 {
		t.Fatalf("geomean(2,8) = %v, want 4", g)
	}
	// Non-positive inputs and empty series mean a broken run; they must fail
	// loudly instead of silently zeroing a published headline.
	wantPanic(t, "geomean(nil)", func() { geomean(nil) })
	wantPanic(t, "geomean(1,-1)", func() { geomean([]float64{1, -1}) })
	wantPanic(t, "geomean(0)", func() { geomean([]float64{0}) })
	wantPanic(t, "geomean(NaN)", func() { geomean([]float64{math.NaN()}) })
}

func wantPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("fig99", testParams()); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestExperimentsListMatchesRun(t *testing.T) {
	ids := Experiments()
	if len(ids) != 17 {
		t.Fatalf("Experiments() = %v, want 17 artifacts", ids)
	}
}

func TestReportRendering(t *testing.T) {
	r := newReport("figX", "Test", "A", "B")
	r.addRow("x", "1.00")
	r.note("hello %d", 7)
	var sb strings.Builder
	r.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"FIGX", "Test", "A", "B", "x", "1.00", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered report missing %q:\n%s", want, out)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness sweep")
	}
	r := Fig5(testParams())
	if len(r.Rows) != len(fig5Benchmarks) {
		t.Fatalf("fig5 rows = %d, want %d", len(r.Rows), len(fig5Benchmarks))
	}
	if g := mustGet(t, r, "geomean/pagoda-vs-hyperq"); g <= 1.0 {
		t.Errorf("Pagoda vs HyperQ geomean = %.2f, want > 1 (paper: 1.51)", g)
	}
	if g := mustGet(t, r, "geomean/pagoda-vs-pthreads"); g <= 1.0 {
		t.Errorf("Pagoda vs PThreads geomean = %.2f, want > 1 (paper: 5.70)", g)
	}
	if g := mustGet(t, r, "geomean/pagoda-vs-gemtc"); g <= 1.0 {
		t.Errorf("Pagoda vs GeMTC geomean = %.2f, want > 1 (paper: 1.69)", g)
	}
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness sweep")
	}
	p := testParams()
	r := Fig10(p)
	// Fused latency grows with task count; Pagoda stays far flatter.
	for _, name := range []string{"3DES", "MM"} {
		lo := mustGet(t, r, "fused-"+name+"/128")
		hi := mustGet(t, r, "fused-"+name+"/512")
		if hi <= lo {
			t.Errorf("%s fused latency flat: %v -> %v", name, lo, hi)
		}
		pgLo := mustGet(t, r, "pagoda-"+name+"/128")
		pgHi := mustGet(t, r, "pagoda-"+name+"/512")
		if pgHi/pgLo > (hi/lo)*0.9 {
			t.Errorf("%s Pagoda latency grew as fast as fusion: pagoda %.1fx vs fused %.1fx",
				name, pgHi/pgLo, hi/lo)
		}
	}
}

func TestTable5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness sweep")
	}
	// Saturating scale: below device saturation the shared-memory benefit
	// is invisible behind spawn costs.
	p := Params{Tasks: 1024, SMMs: 2, Seed: 1}
	r := Table5(p)
	for _, name := range []string{"DCT", "MM"} {
		withSM := mustGet(t, r, name+"/speedup-sm")
		noSM := mustGet(t, r, name+"/speedup-nosm")
		if withSM <= 0 || noSM <= 0 {
			t.Fatalf("%s missing speedups: %v %v", name, withSM, noSM)
		}
		// "The shared memory usage offers considerable benefits."
		if withSM <= noSM {
			t.Errorf("%s: shared-memory version (%.2f) not faster than without (%.2f)", name, withSM, noSM)
		}
	}
}

func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness sweep")
	}
	// The paper's batching/continuous-spawning contrast only appears once
	// the task count exceeds the batch size ("once the task count grows
	// beyond 512, Pagoda obtains higher performance", §6.2).
	r := Fig11(Params{Tasks: 1024, SMMs: 8, Seed: 1})
	// Pagoda outperforms GeMTC in all cases (paper).
	for _, row := range r.Rows {
		name := row[0]
		if v := mustGet(t, r, name+"/pagoda"); v <= 1.0 {
			t.Errorf("%s: Pagoda (%.2f) not above GeMTC", name, v)
		}
	}
}
