package perf

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// Status is a per-metric verdict.
type Status int

const (
	// OK: within the tolerance band of the baseline.
	OK Status = iota
	// Improved: past the band in the good direction — the run beat its
	// baseline by more than the tolerance. Not a failure; it marks a
	// candidate for a -update ratchet.
	Improved
	// Fail: past the band in the bad direction.
	Fail
	// Error: the command failed or the metric could not be extracted.
	Error
)

func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case Improved:
		return "ok (better)"
	case Fail:
		return "FAIL"
	default:
		return "ERROR"
	}
}

// Verdict is one metric's outcome: the measured value against its baseline.
type Verdict struct {
	Metric   *Metric
	Measured float64
	DeltaPct float64 // (measured-baseline)/baseline, 0 when baseline is 0
	Status   Status
	Err      error
}

// ExecResult is one command execution: captured stdout plus elapsed
// wall-clock seconds.
type ExecResult struct {
	Stdout  []byte
	Seconds float64
}

// ExecFunc runs one command (argv form, already split) in dir. Tests stub it
// to feed the extractors synthetic output.
type ExecFunc func(dir string, argv []string) (ExecResult, error)

// Runner executes a suite's metrics and compares them against baselines.
type Runner struct {
	// Dir is the working directory the commands run in (the repo root).
	Dir string
	// Quick restricts the run to metrics marked quick — the `make check`
	// subset; the full set is `make perf`.
	Quick bool
	// Exec runs one command; nil means real subprocess execution.
	Exec ExecFunc
	// Log receives one progress line per command as it starts (commands can
	// take tens of seconds); nil discards.
	Log io.Writer
}

// Run measures every selected metric in the suite. Metrics sharing a command
// string share one execution: a single `go test -bench` run feeds all the
// ns/op and allocs/op patterns declared against it. The returned verdicts
// follow the suite's metric order.
func (r *Runner) Run(s *Suite) []Verdict {
	execf := r.Exec
	if execf == nil {
		execf = realExec
	}
	type cached struct {
		res ExecResult
		err error
	}
	cache := map[string]cached{}
	var vs []Verdict
	for _, m := range s.Metrics {
		if r.Quick && !m.Quick {
			continue
		}
		c, ok := cache[m.Command]
		if !ok {
			if r.Log != nil {
				fmt.Fprintf(r.Log, "perf[%s]: running %s\n", s.Suite, m.Command)
			}
			res, err := execf(r.Dir, strings.Fields(m.Command))
			c = cached{res, err}
			cache[m.Command] = c
		}
		v := Verdict{Metric: m}
		if c.err != nil {
			v.Status, v.Err = Error, c.err
			vs = append(vs, v)
			continue
		}
		var err error
		switch m.Extract.Kind {
		case KindBench:
			v.Measured, err = ParseBench(c.res.Stdout, m.Extract.Bench, m.Extract.Field)
		case KindReport:
			v.Measured, err = ExtractReportValue(c.res.Stdout, m.Extract.Exp, m.Extract.Key)
		case KindNumber:
			v.Measured, err = ParseLastNumber(c.res.Stdout)
		default: // KindWallclock; Validate rejected everything else
			v.Measured = c.res.Seconds
		}
		if err != nil {
			v.Status, v.Err = Error, err
			vs = append(vs, v)
			continue
		}
		v.Status, v.DeltaPct = compare(m, v.Measured)
		vs = append(vs, v)
	}
	return vs
}

// compare places a measurement against the metric's tolerance band. The band
// is symmetric — baseline ± |baseline|·tol% — and the direction decides which
// side is a failure and which an improvement. A zero baseline degenerates to
// a zero-width band: any move in the bad direction fails (the contract that
// pins 0 allocs/op exactly).
func compare(m *Metric, v float64) (Status, float64) {
	delta := 0.0
	if m.Baseline != 0 {
		delta = (v - m.Baseline) / m.Baseline * 100
	}
	band := math.Abs(m.Baseline) * m.TolerancePct / 100
	lo, hi := m.Baseline-band, m.Baseline+band
	bad, good := v > hi, v < lo // Lower: worse is larger
	if m.Direction == Higher {
		bad, good = v < lo, v > hi
	}
	switch {
	case bad:
		return Fail, delta
	case good:
		return Improved, delta
	default:
		return OK, delta
	}
}

// Failed reports whether any verdict regressed or errored.
func Failed(vs []Verdict) bool {
	for _, v := range vs {
		if v.Status == Fail || v.Status == Error {
			return true
		}
	}
	return false
}

// ApplyUpdate ratchets the suite's baselines to the measured values and
// restamps provenance. Only cleanly measured metrics move; errored ones keep
// their old baseline so a broken command can't zero a reference.
func ApplyUpdate(s *Suite, vs []Verdict, p Provenance) {
	for _, v := range vs {
		if v.Err == nil {
			v.Metric.Baseline = round4(v.Measured)
		}
	}
	s.Provenance = p
}

// round4 trims a measurement to 4 significant decimals so ratcheted baseline
// files stay readable (wall clocks like 12.0327541s become 12.0328).
func round4(v float64) float64 {
	return math.Round(v*1e4) / 1e4
}

// FprintVerdicts renders the per-metric verdict table for one suite.
func FprintVerdicts(w io.Writer, suite string, vs []Verdict) {
	fmt.Fprintf(w, "== perf suite %s ==\n", suite)
	name := len("metric")
	for _, v := range vs {
		if n := len(v.Metric.Name); n > name {
			name = n
		}
	}
	fmt.Fprintf(w, "%-*s  %12s  %12s  %8s  %6s  %s\n", name, "metric", "baseline", "measured", "delta", "tol", "verdict")
	for _, v := range vs {
		m := v.Metric
		if v.Status == Error {
			fmt.Fprintf(w, "%-*s  %12s  %12s  %8s  %5.0f%%  %s: %v\n",
				name, m.Name, fnum(m.Baseline), "-", "-", m.TolerancePct, v.Status, v.Err)
			continue
		}
		fmt.Fprintf(w, "%-*s  %12s  %12s  %+7.1f%%  %5.0f%%  %s\n",
			name, m.Name, fnum(m.Baseline), fnum(v.Measured), v.DeltaPct, m.TolerancePct, v.Status)
	}
}

// fnum renders a metric value compactly: integers without a mantissa, small
// readings with enough decimals to mean something.
func fnum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// realExec runs argv in dir, capturing stdout and wall-clock seconds. Stderr
// is captured separately and surfaced only on failure (go test -bench writes
// its progress there).
func realExec(dir string, argv []string) (ExecResult, error) {
	if len(argv) == 0 {
		return ExecResult{}, fmt.Errorf("perf: empty command")
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	elapsed := time.Since(start).Seconds()
	if err != nil {
		return ExecResult{}, fmt.Errorf("perf: %s: %v\n%s", strings.Join(argv, " "), err, errb.Bytes())
	}
	return ExecResult{Stdout: out.Bytes(), Seconds: elapsed}, nil
}

// Stamp gathers the provenance of the current environment for -update: host
// identity, UTC date, and the git revision of dir (best effort — "unknown"
// outside a repo).
func Stamp(dir string) Provenance {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	rev := "unknown"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = dir
	if out, err := cmd.Output(); err == nil {
		rev = strings.TrimSpace(string(out))
	}
	return Provenance{
		Host:   fmt.Sprintf("%s (%s/%s, %d CPUs)", host, runtime.GOOS, runtime.GOARCH, runtime.NumCPU()),
		Date:   time.Now().UTC().Format("2006-01-02"),
		GitRev: rev,
	}
}
