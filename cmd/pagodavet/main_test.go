package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chdir moves the test into dir and restores the old cwd on cleanup.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

// scratch builds a throwaway module from root-relative file paths and chdirs
// into it.
func scratch(t *testing.T, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module scratch\n\ngo 1.22\n"
	for rel, src := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	chdir(t, dir)
}

// TestSweepCleanTree runs the full determinism sweep over this repository —
// the same invocation `make lint` uses — and requires it to pass: the tree
// must stay clean, with every intentional exception carrying a
// //pagoda:allow annotation.
func TestSweepCleanTree(t *testing.T) {
	chdir(t, filepath.Join("..", ".."))
	var out, errw strings.Builder
	if code := run(&out, &errw, []string{"./..."}); code != 0 {
		t.Fatalf("pagodavet ./... = %d, want 0\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errw.String())
	}
}

// TestCatchesInjectedWallclock pins the gate's teeth: a time.Now smuggled
// into a simulation package must turn the sweep red. It builds a scratch
// module whose internal/sim contains the injection and sweeps it.
func TestCatchesInjectedWallclock(t *testing.T) {
	dir := t.TempDir()
	simDir := filepath.Join(dir, "internal", "sim")
	if err := os.MkdirAll(simDir, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		filepath.Join(dir, "go.mod"): "module scratch\n\ngo 1.22\n",
		filepath.Join(simDir, "sim.go"): `package sim

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
	}
	for path, src := range files {
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	chdir(t, dir)

	var out, errw strings.Builder
	if code := run(&out, &errw, []string{"./..."}); code != 1 {
		t.Fatalf("sweep of injected tree = %d, want 1\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "[wallclock] time.Now") {
		t.Errorf("expected a wallclock finding, got:\n%s", out.String())
	}
}

// TestVerboseReportsSuppressions checks -v surfaces the tree's annotated
// exceptions instead of hiding them.
func TestVerboseReportsSuppressions(t *testing.T) {
	chdir(t, filepath.Join("..", ".."))
	var out, errw strings.Builder
	if code := run(&out, &errw, []string{"-v", "./internal/harness"}); code != 0 {
		t.Fatalf("pagodavet -v ./internal/harness = %d\nstderr:\n%s", code, errw.String())
	}
	if !strings.Contains(out.String(), "(suppressed)") {
		t.Errorf("-v output missing suppressed findings:\n%s", out.String())
	}
}

// multiHopModule is a scratch tree where the nondeterminism source lives in
// internal/harness — a package the syntactic wallclock check deliberately
// does not cover — and reaches internal/sim's event heap only through two
// call hops across packages. Only the interprocedural check can see it.
func multiHopModule(t *testing.T) {
	t.Helper()
	scratch(t, map[string]string{
		"internal/sim/sim.go": `package sim

type Time int64

type Engine struct{ now Time }

func (e *Engine) Schedule(at Time, fn func()) { _, _ = at, fn }
`,
		"internal/harness/clock.go": `package harness

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
		"internal/core/core.go": `package core

import (
	"scratch/internal/harness"
	"scratch/internal/sim"
)

func delay() sim.Time { return sim.Time(harness.Stamp()) }

func Kick(e *sim.Engine) { e.Schedule(delay(), nil) }
`,
	})
}

// TestCatchesMultiHopTaint pins the tentpole: a wall-clock read hidden two
// calls and two packages away from the sink, invisible to every per-file
// check, still fails the gate — and the diagnostic carries the full
// source→sink path.
func TestCatchesMultiHopTaint(t *testing.T) {
	multiHopModule(t)
	var out, errw strings.Builder
	if code := run(&out, &errw, []string{"./..."}); code != 1 {
		t.Fatalf("sweep of multi-hop tainted tree = %d, want 1\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errw.String())
	}
	got := out.String()
	if !strings.Contains(got, "[taintflow]") {
		t.Fatalf("expected a taintflow finding, got:\n%s", got)
	}
	if strings.Contains(got, "[wallclock]") {
		t.Errorf("wallclock should not fire (source is outside its scope):\n%s", got)
	}
	for _, hop := range []string{"time.Now", "harness.Stamp", "core.delay", "sim.Engine.Schedule"} {
		if !strings.Contains(got, hop) {
			t.Errorf("diagnostic path missing hop %q:\n%s", hop, got)
		}
	}
}

// TestJSONOutput checks -json emits a parseable array with the documented
// fields, including the interprocedural path.
func TestJSONOutput(t *testing.T) {
	multiHopModule(t)
	var out, errw strings.Builder
	if code := run(&out, &errw, []string{"-json", "./..."}); code != 1 {
		t.Fatalf("pagodavet -json = %d, want 1\nstderr:\n%s", code, errw.String())
	}
	var rows []struct {
		File  string   `json:"file"`
		Line  int      `json:"line"`
		Check string   `json:"check"`
		Msg   string   `json:"msg"`
		Path  []string `json:"path"`
	}
	if err := json.Unmarshal([]byte(out.String()), &rows); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(rows) == 0 {
		t.Fatal("-json emitted an empty array for a tainted tree")
	}
	found := false
	for _, r := range rows {
		if r.Check != "taintflow" {
			continue
		}
		found = true
		if r.File != filepath.Join("internal", "core", "core.go") || r.Line == 0 {
			t.Errorf("taintflow row has file=%q line=%d, want internal/core/core.go with a line", r.File, r.Line)
		}
		if r.Msg == "" || len(r.Path) < 4 {
			t.Errorf("taintflow row missing msg or full path: %+v", r)
		}
	}
	if !found {
		t.Errorf("no taintflow row in -json output:\n%s", out.String())
	}
}

// TestStaleSuppressionFailsGate: an //pagoda:allow that suppresses nothing is
// itself a finding, so annotations cannot silently outlive the code they
// excused.
func TestStaleSuppressionFailsGate(t *testing.T) {
	scratch(t, map[string]string{
		"internal/sim/sim.go": `package sim

//pagoda:allow wallclock historical exemption that no longer matches anything
func Now() int64 { return 42 }
`,
	})
	var out, errw strings.Builder
	if code := run(&out, &errw, []string{"./..."}); code != 1 {
		t.Fatalf("sweep with stale suppression = %d, want 1\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "[suppression] stale //pagoda:allow wallclock") {
		t.Errorf("expected a stale-suppression finding, got:\n%s", out.String())
	}
}

// TestExitCodeLoadError pins exit code 2 for trees pagodavet cannot analyze:
// unparseable source, and patterns that match no packages (a typo'd path must
// not report "clean").
func TestExitCodeLoadError(t *testing.T) {
	scratch(t, map[string]string{
		"broken/broken.go": "package broken\n\nfunc {\n",
		"empty/notes.txt":  "no Go files here\n",
	})
	cases := []struct {
		name string
		args []string
	}{
		{"unparseable", []string{"./broken"}},
		{"no packages", []string{"./empty"}},
		{"nonexistent", []string{"./nope/..."}},
	}
	for _, c := range cases {
		var out, errw strings.Builder
		if code := run(&out, &errw, c.args); code != 2 {
			t.Errorf("%s: pagodavet %v = %d, want 2\nstdout:\n%s\nstderr:\n%s",
				c.name, c.args, code, out.String(), errw.String())
		} else if !strings.Contains(errw.String(), "pagodavet:") {
			t.Errorf("%s: no diagnostic on stderr", c.name)
		}
	}
}

// TestHelpExitsZero pins -h as a request, not a usage error: it prints the
// flags and exits 0 without loading a package.
func TestHelpExitsZero(t *testing.T) {
	var out, errw strings.Builder
	if code := run(&out, &errw, []string{"-h"}); code != 0 {
		t.Fatalf("run(-h) = %d, want 0 (stderr %q)", code, errw.String())
	}
	if !strings.Contains(errw.String(), "-json") || out.Len() != 0 {
		t.Errorf("-h printed stdout %q, stderr %q; want the usage on stderr only", out.String(), errw.String())
	}
}

// TestExitCodeClean pins exit 0 for a module with nothing to report.
func TestExitCodeClean(t *testing.T) {
	scratch(t, map[string]string{
		"internal/sim/sim.go": "package sim\n\ntype Time int64\n",
	})
	var out, errw strings.Builder
	if code := run(&out, &errw, []string{"./..."}); code != 0 {
		t.Fatalf("sweep of clean tree = %d, want 0\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errw.String())
	}
}
