package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/perf"
)

// writeSuite drops a one-metric wallclock suite to disk. The command is `go
// env GOOS` — cheap, dependency-free, and present wherever the tests run —
// so these smoke tests exercise the real subprocess path end to end.
func writeSuite(t *testing.T, name string, m perf.Metric) string {
	t.Helper()
	s := &perf.Suite{Suite: name, Description: "test fixture", Metrics: []*perf.Metric{&m}}
	path := filepath.Join(t.TempDir(), "BENCH_"+name+".json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGatePasses(t *testing.T) {
	path := writeSuite(t, "pass", perf.Metric{
		Name: "noop_wallclock", Command: "go env GOOS",
		Extract:  perf.Extract{Kind: perf.KindWallclock},
		Baseline: 3600, TolerancePct: 100, Direction: perf.Lower,
	})
	var out, errw strings.Builder
	if code := run(&out, &errw, []string{path}); code != 0 {
		t.Fatalf("run = %d, stderr %q", code, errw.String())
	}
	if !strings.Contains(out.String(), "noop_wallclock") || !strings.Contains(out.String(), "ok") {
		t.Errorf("verdict table missing metric/verdict:\n%s", out.String())
	}
}

// TestGateFailsOnInjectedRegression drives the CLI against a baseline the
// host cannot possibly meet (an hour of sustained wall clock, higher-is-
// better): the gate must exit nonzero and name the metric in the table.
func TestGateFailsOnInjectedRegression(t *testing.T) {
	path := writeSuite(t, "regress", perf.Metric{
		Name: "injected_regression_metric", Command: "go env GOOS",
		Extract:  perf.Extract{Kind: perf.KindWallclock},
		Baseline: 3600, TolerancePct: 0, Direction: perf.Higher,
	})
	var out, errw strings.Builder
	if code := run(&out, &errw, []string{path}); code != 1 {
		t.Fatalf("run = %d, want 1; stderr %q", code, errw.String())
	}
	if !strings.Contains(out.String(), "injected_regression_metric") || !strings.Contains(out.String(), "FAIL") {
		t.Errorf("verdict table must name the failed metric:\n%s", out.String())
	}
	if !strings.Contains(errw.String(), "regression") {
		t.Errorf("stderr = %q, want regression summary", errw.String())
	}
}

// TestUpdateRatchetsBaselineWithProvenance pins -update: the measured value
// becomes the baseline and host/date/git-rev provenance is stamped.
func TestUpdateRatchetsBaselineWithProvenance(t *testing.T) {
	path := writeSuite(t, "update", perf.Metric{
		Name: "noop_wallclock", Command: "go env GOOS",
		Extract:  perf.Extract{Kind: perf.KindWallclock},
		Baseline: 3600, TolerancePct: 100, Direction: perf.Lower,
	})
	var out, errw strings.Builder
	if code := run(&out, &errw, []string{"-update", path}); code != 0 {
		t.Fatalf("run(-update) = %d, stderr %q", code, errw.String())
	}
	s, err := perf.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if b := s.Metrics[0].Baseline; b <= 0 || b >= 600 {
		t.Errorf("ratcheted baseline = %v, want the measured wall clock", b)
	}
	p := s.Provenance
	if p.Host == "" || p.Date == "" || p.GitRev == "" {
		t.Errorf("provenance not stamped: %+v", p)
	}
	if !strings.Contains(p.Date, "20") {
		t.Errorf("date %q does not look like a date", p.Date)
	}
	// The tests run inside the repo, so the rev must be a real short hash,
	// not the out-of-repo fallback.
	if p.GitRev == "unknown" {
		t.Errorf("git rev not resolved: %+v", p)
	}
}

func TestQuickUpdateConflict(t *testing.T) {
	var out, errw strings.Builder
	if code := run(&out, &errw, []string{"-quick", "-update"}); code != 2 {
		t.Fatalf("run(-quick -update) = %d, want 2", code)
	}
}

// TestHelpExitsZero pins -h as a request, not a usage error: it prints the
// flags and exits 0 without running the gate.
func TestHelpExitsZero(t *testing.T) {
	var out, errw strings.Builder
	if code := run(&out, &errw, []string{"-h"}); code != 0 {
		t.Fatalf("run(-h) = %d, want 0 (stderr %q)", code, errw.String())
	}
	if !strings.Contains(errw.String(), "-quick") || out.Len() != 0 {
		t.Errorf("-h printed stdout %q, stderr %q; want the usage on stderr only", out.String(), errw.String())
	}
}

func TestUnreadableBaselineFile(t *testing.T) {
	var out, errw strings.Builder
	if code := run(&out, &errw, []string{filepath.Join(t.TempDir(), "missing.json")}); code != 2 {
		t.Fatalf("run(missing file) = %d, want 2", code)
	}
}

// TestDefaultFilesExist pins the contract between the command and the repo
// root: the default baseline files it gates must exist and validate.
func TestDefaultFilesExist(t *testing.T) {
	for _, f := range defaultFiles {
		path := filepath.Join("..", "..", f)
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("default baseline file missing: %v", err)
		}
		if _, err := perf.Load(path); err != nil {
			t.Errorf("default baseline file invalid: %v", err)
		}
	}
}
