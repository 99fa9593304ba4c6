package perf

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompare(t *testing.T) {
	cases := []struct {
		base, tol float64
		dir       string
		v         float64
		want      Status
	}{
		// lower-is-better: band is baseline ± tol%
		{100, 10, Lower, 100, OK},
		{100, 10, Lower, 110, OK},     // at the edge: inside
		{100, 10, Lower, 110.1, Fail}, // just past
		{100, 10, Lower, 89.9, Improved},
		{100, 10, Lower, 95, OK},
		// higher-is-better mirrors
		{100, 10, Higher, 89.9, Fail},
		{100, 10, Higher, 110.1, Improved},
		{100, 10, Higher, 100, OK},
		// zero tolerance = exact match required
		{512000, 0, Higher, 512000, OK},
		{512000, 0, Higher, 511999, Fail},
		{512000, 0, Higher, 512001, Improved},
		// zero baseline degenerates to a zero-width band (0 allocs/op):
		// tolerance is percentage-of-baseline, so it cannot widen it
		{0, 100, Lower, 0, OK},
		{0, 100, Lower, 1, Fail},
		{0, 100, Higher, 1, Improved},
	}
	for _, c := range cases {
		m := &Metric{Name: "m", Baseline: c.base, TolerancePct: c.tol, Direction: c.dir}
		got, _ := compare(m, c.v)
		if got != c.want {
			t.Errorf("compare(base %v ±%v%% %s, measured %v) = %v, want %v",
				c.base, c.tol, c.dir, c.v, got, c.want)
		}
	}
}

// stubExec returns canned output per command and counts executions.
func stubExec(t *testing.T, outputs map[string]ExecResult, calls map[string]int) ExecFunc {
	return func(dir string, argv []string) (ExecResult, error) {
		cmd := strings.Join(argv, " ")
		calls[cmd]++
		res, ok := outputs[cmd]
		if !ok {
			t.Fatalf("unexpected command %q", cmd)
		}
		return res, nil
	}
}

func testSuite() *Suite {
	return &Suite{
		Suite: "test",
		Metrics: []*Metric{
			{Name: "sched_ns", Command: "go test -bench=X ./internal/sim/",
				Extract:  Extract{Kind: KindBench, Bench: "BenchmarkEngineSchedule", Field: "ns/op"},
				Baseline: 16.4, TolerancePct: 100, Direction: Lower, Quick: true},
			{Name: "sched_allocs", Command: "go test -bench=X ./internal/sim/",
				Extract:  Extract{Kind: KindBench, Bench: "BenchmarkEngineSchedule", Field: "allocs/op"},
				Baseline: 0, TolerancePct: 0, Direction: Lower, Quick: true},
			{Name: "fig5_wallclock", Command: "go run ./cmd/pagodabench -exp fig5",
				Extract:  Extract{Kind: KindWallclock},
				Baseline: 17.2, TolerancePct: 100, Direction: Lower},
			{Name: "capacity", Command: "go run ./cmd/pagodabench -exp cluster_scaling -format json",
				Extract:  Extract{Kind: KindReport, Exp: "cluster_scaling", Key: "pagoda/8/max-rate"},
				Baseline: 512000, TolerancePct: 0, Direction: Higher},
		},
	}
}

const healthyBench = "BenchmarkEngineSchedule-8  100  17.0 ns/op  0 B/op  0 allocs/op\n"

func healthyOutputs() map[string]ExecResult {
	return map[string]ExecResult{
		"go test -bench=X ./internal/sim/":   {Stdout: []byte(healthyBench)},
		"go run ./cmd/pagodabench -exp fig5": {Seconds: 16.9},
		"go run ./cmd/pagodabench -exp cluster_scaling -format json": {Stdout: []byte(
			`{"id":"cluster_scaling","values":{"pagoda/8/max-rate":512000}}`)},
	}
}

// TestRunnerHealthy drives the full pipeline on a clean tree: every metric
// within tolerance, metrics sharing a command sharing one execution.
func TestRunnerHealthy(t *testing.T) {
	s := testSuite()
	calls := map[string]int{}
	r := &Runner{Exec: stubExec(t, healthyOutputs(), calls)}
	vs := r.Run(s)
	if len(vs) != 4 {
		t.Fatalf("verdicts = %d, want 4", len(vs))
	}
	if Failed(vs) {
		t.Fatalf("healthy run failed: %+v", vs)
	}
	if calls["go test -bench=X ./internal/sim/"] != 1 {
		t.Errorf("shared command ran %d times, want 1", calls["go test -bench=X ./internal/sim/"])
	}
}

// TestRunnerQuickSubset pins -quick: only quick-marked metrics run, and
// their commands alone execute.
func TestRunnerQuickSubset(t *testing.T) {
	s := testSuite()
	calls := map[string]int{}
	r := &Runner{Quick: true, Exec: stubExec(t, healthyOutputs(), calls)}
	vs := r.Run(s)
	if len(vs) != 2 {
		t.Fatalf("quick verdicts = %d, want 2", len(vs))
	}
	if len(calls) != 1 {
		t.Errorf("quick run executed %d commands, want 1: %v", len(calls), calls)
	}
}

// TestRunnerInjectedRegression is the synthetic-regression fixture: the same
// suite against outputs where the scheduler benchmark slowed 3x and started
// allocating, and the capacity headline dropped a rung. The gate must fail
// and the verdict table must name every drifted metric.
func TestRunnerInjectedRegression(t *testing.T) {
	s := testSuite()
	outputs := healthyOutputs()
	outputs["go test -bench=X ./internal/sim/"] = ExecResult{
		Stdout: []byte("BenchmarkEngineSchedule-8  100  49.2 ns/op  24 B/op  2 allocs/op\n")}
	outputs["go run ./cmd/pagodabench -exp cluster_scaling -format json"] = ExecResult{
		Stdout: []byte(`{"id":"cluster_scaling","values":{"pagoda/8/max-rate":256000}}`)}
	calls := map[string]int{}
	vs := (&Runner{Exec: stubExec(t, outputs, calls)}).Run(s)
	if !Failed(vs) {
		t.Fatal("injected regression not caught")
	}
	status := map[string]Status{}
	for _, v := range vs {
		status[v.Metric.Name] = v.Status
	}
	for _, want := range []string{"sched_ns", "sched_allocs", "capacity"} {
		if status[want] != Fail {
			t.Errorf("%s = %v, want Fail", want, status[want])
		}
	}
	if status["fig5_wallclock"] != OK {
		t.Errorf("fig5_wallclock = %v, want OK", status["fig5_wallclock"])
	}
	var tbl bytes.Buffer
	FprintVerdicts(&tbl, s.Suite, vs)
	for _, want := range []string{"sched_ns", "sched_allocs", "capacity", "FAIL"} {
		if !strings.Contains(tbl.String(), want) {
			t.Errorf("verdict table missing %q:\n%s", want, tbl.String())
		}
	}
}

// TestRunnerCommandError pins the error path: a failing command errors every
// metric bound to it without touching the others.
func TestRunnerCommandError(t *testing.T) {
	s := testSuite()
	bad := "go test -bench=X ./internal/sim/"
	r := &Runner{Exec: func(dir string, argv []string) (ExecResult, error) {
		cmd := strings.Join(argv, " ")
		if cmd == bad {
			return ExecResult{}, fmt.Errorf("exit status 2")
		}
		return healthyOutputs()[cmd], nil
	}}
	vs := r.Run(s)
	if !Failed(vs) {
		t.Fatal("command failure must fail the run")
	}
	if vs[0].Status != Error || vs[1].Status != Error {
		t.Errorf("bench metrics = %v/%v, want Error/Error", vs[0].Status, vs[1].Status)
	}
	if vs[2].Status != OK && vs[2].Status != Improved {
		t.Errorf("unrelated metric = %v, want ok", vs[2].Status)
	}
}

// TestApplyUpdateAndSave pins the ratchet: measured values become baselines
// (errored metrics keep theirs), provenance is restamped, and the file
// round-trips through Save/Load.
func TestApplyUpdateAndSave(t *testing.T) {
	s := testSuite()
	vs := []Verdict{
		{Metric: s.Metrics[0], Measured: 12.34567891},
		{Metric: s.Metrics[1], Measured: 0},
		{Metric: s.Metrics[2], Err: fmt.Errorf("boom")},
		{Metric: s.Metrics[3], Measured: 512000},
	}
	p := Provenance{Host: "h (linux/amd64, 1 CPUs)", Date: "2026-08-08", GitRev: "abc1234"}
	ApplyUpdate(s, vs, p)
	if s.Metrics[0].Baseline != 12.3457 { // rounded to 4 decimals
		t.Errorf("ratcheted baseline = %v, want 12.3457", s.Metrics[0].Baseline)
	}
	if s.Metrics[2].Baseline != 17.2 {
		t.Errorf("errored metric baseline moved to %v", s.Metrics[2].Baseline)
	}
	if s.Provenance != p {
		t.Errorf("provenance = %+v, want %+v", s.Provenance, p)
	}

	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Provenance != p || got.Metrics[0].Baseline != 12.3457 || len(got.Metrics) != 4 {
		t.Errorf("round-trip mismatch: %+v", got)
	}
}

func TestValidate(t *testing.T) {
	bad := []*Suite{
		{Suite: "", Metrics: []*Metric{{Name: "m", Command: "c", Direction: Lower, Extract: Extract{Kind: KindWallclock}}}},
		{Suite: "s"}, // no metrics
		{Suite: "s", Metrics: []*Metric{{Name: "", Command: "c", Direction: Lower, Extract: Extract{Kind: KindWallclock}}}},
		{Suite: "s", Metrics: []*Metric{ // duplicate names
			{Name: "m", Command: "c", Direction: Lower, Extract: Extract{Kind: KindWallclock}},
			{Name: "m", Command: "c", Direction: Lower, Extract: Extract{Kind: KindWallclock}}}},
		{Suite: "s", Metrics: []*Metric{{Name: "m", Command: "", Direction: Lower, Extract: Extract{Kind: KindWallclock}}}},
		{Suite: "s", Metrics: []*Metric{{Name: "m", Command: "c", Direction: "sideways", Extract: Extract{Kind: KindWallclock}}}},
		{Suite: "s", Metrics: []*Metric{{Name: "m", Command: "c", Direction: Lower, TolerancePct: -1, Extract: Extract{Kind: KindWallclock}}}},
		{Suite: "s", Metrics: []*Metric{{Name: "m", Command: "c", Direction: Lower, Extract: Extract{Kind: "psychic"}}}},
		{Suite: "s", Metrics: []*Metric{{Name: "m", Command: "c", Direction: Lower, Extract: Extract{Kind: KindBench}}}},                                   // no bench name
		{Suite: "s", Metrics: []*Metric{{Name: "m", Command: "c", Direction: Lower, Extract: Extract{Kind: KindBench, Bench: "B", Field: "furlongs/op"}}}}, // bad field
		{Suite: "s", Metrics: []*Metric{{Name: "m", Command: "c", Direction: Lower, Extract: Extract{Kind: KindReport}}}},                                  // no key
	}
	number := &Suite{Suite: "s", Metrics: []*Metric{{Name: "m", Command: "c", Direction: Lower, Extract: Extract{Kind: KindNumber}}}}
	if err := number.Validate(); err != nil {
		t.Errorf("number metric rejected: %v", err)
	}
	perTask := &Suite{Suite: "s", Metrics: []*Metric{{Name: "m", Command: "c", Direction: Lower,
		Extract: Extract{Kind: KindBench, Bench: "B/shape", Field: "events/task"}}}}
	if err := perTask.Validate(); err != nil {
		t.Errorf("per-task bench metric rejected: %v", err)
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: Validate() = nil, want error: %+v", i, s)
		}
	}
	if err := testSuite().Validate(); err != nil {
		t.Errorf("healthy suite rejected: %v", err)
	}
}

// TestRunnerNumberKind pins the number extract kind on a `make loc`-shaped
// metric: the last non-empty stdout line is the measurement, a zero band
// fails on one line more, and output that does not end in a number is an
// error rather than a silent zero.
func TestRunnerNumberKind(t *testing.T) {
	s := &Suite{Suite: "loc", Metrics: []*Metric{{Name: "lines", Command: "make loc",
		Extract: Extract{Kind: KindNumber}, Baseline: 17000, TolerancePct: 0, Direction: Lower}}}
	for _, tc := range []struct {
		out  string
		want Status
		v    float64
	}{
		{"17000\n", OK, 17000},
		{"building\n 16990 \n\n", Improved, 16990},
		{"17001\n", Fail, 17001},
		{"", Error, 0},
		{"17000\ndone\n", Error, 0},
	} {
		r := &Runner{Exec: func(string, []string) (ExecResult, error) {
			return ExecResult{Stdout: []byte(tc.out)}, nil
		}}
		vs := r.Run(s)
		if vs[0].Status != tc.want || vs[0].Measured != tc.v {
			t.Errorf("output %q: status %v measured %v (err %v), want %v %v",
				tc.out, vs[0].Status, vs[0].Measured, vs[0].Err, tc.want, tc.v)
		}
	}
}

// TestCommittedSuitesLoad validates every BENCH_*.json at the repo root, so a
// baseline file with an unknown extract kind or a malformed metric fails
// `go test`, not only `make perf`.
func TestCommittedSuitesLoad(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no BENCH_*.json at the repo root (%v)", err)
	}
	for _, p := range paths {
		if _, err := Load(p); err != nil {
			t.Error(err)
		}
	}
}
