// Package perf is the machine-verified performance-baseline gate
// (ReFrame-style): the BENCH_*.json files at the repo root declare, per
// metric, the command that measures it, how to extract the number from that
// command's output, the baseline value, a tolerance band and a direction.
// cmd/pagodaperf re-runs the commands, compares, and fails on any drift past
// tolerance — so a hot-path regression breaks `make check` instead of
// silently rotting a changelog claim. An update mode ratchets the baselines
// with host/date/git-rev provenance.
//
// This package is deliberately outside the simulator's determinism scope: it
// measures the real host (wall clock, subprocesses), never simulated time.
package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Directions: whether a larger measured value is better or worse.
const (
	// Lower marks a metric where smaller is better (ns/op, allocs/op,
	// wall-clock seconds). A measurement above baseline*(1+tol) fails.
	Lower = "lower"
	// Higher marks a metric where larger is better (sustained capacity).
	// A measurement below baseline*(1-tol) fails.
	Higher = "higher"
)

// Extraction kinds: how a metric's number is pulled out of its command.
const (
	// KindBench parses `go test -bench` output: Extract.Bench names the
	// benchmark (sub-benchmarks as "BenchmarkOpenLoop/pagoda") and
	// Extract.Field the column ("ns/op" default, "allocs/op", "B/op").
	KindBench = "bench"
	// KindReport parses pagodabench -format json output (one document or an
	// array): Extract.Exp selects the report by id ("" accepts a single
	// document) and Extract.Key a Values entry.
	KindReport = "report"
	// KindWallclock measures the command's own elapsed wall-clock seconds;
	// its output is ignored.
	KindWallclock = "wallclock"
	// KindNumber reads the command's last non-empty stdout line as one
	// number, e.g. the line count `make loc` prints.
	KindNumber = "number"
)

// Suite is one baseline file: a named group of metrics measured together,
// with the provenance of the host that recorded the current baselines.
type Suite struct {
	Suite       string     `json:"suite"`
	Description string     `json:"description"`
	Notes       []string   `json:"notes,omitempty"`
	Provenance  Provenance `json:"provenance"`
	Metrics     []*Metric  `json:"metrics"`
}

// Provenance names the environment that produced the recorded baselines, so
// a drifted verdict can be read against where its reference numbers came
// from. Update (-update) restamps it.
type Provenance struct {
	Host   string `json:"host"`
	Date   string `json:"date"`
	GitRev string `json:"git_rev"`
}

// Metric is one declarative performance pattern: run Command, extract a
// number per Extract, and require it within TolerancePct of Baseline in the
// good Direction.
type Metric struct {
	Name    string  `json:"name"`
	Command string  `json:"command"` // argv split on whitespace; no shell, no quoting
	Extract Extract `json:"extract"`
	// Baseline is the recorded reference value. A zero baseline switches the
	// band to absolute zero-width: any measured value past 0 in the bad
	// direction fails regardless of TolerancePct (what pins 0 allocs/op).
	Baseline     float64 `json:"baseline"`
	TolerancePct float64 `json:"tolerance_pct"`
	Direction    string  `json:"direction"`
	// Quick marks the metric for the -quick subset wired into `make check`;
	// the full set runs under `make perf`.
	Quick bool   `json:"quick,omitempty"`
	Notes string `json:"notes,omitempty"`
}

// Extract declares how the metric's number is pulled from its command; see
// the Kind* constants for the field semantics.
type Extract struct {
	Kind  string `json:"kind"`
	Bench string `json:"bench,omitempty"`
	Field string `json:"field,omitempty"`
	Exp   string `json:"exp,omitempty"`
	Key   string `json:"key,omitempty"`
}

// Validate rejects a malformed suite before any command runs, so a typo'd
// baseline file fails fast instead of mid-sweep.
func (s *Suite) Validate() error {
	if s.Suite == "" {
		return fmt.Errorf("perf: suite has no name")
	}
	if len(s.Metrics) == 0 {
		return fmt.Errorf("perf: suite %q declares no metrics", s.Suite)
	}
	seen := make(map[string]bool, len(s.Metrics))
	for _, m := range s.Metrics {
		if m.Name == "" {
			return fmt.Errorf("perf: suite %q has an unnamed metric", s.Suite)
		}
		if seen[m.Name] {
			return fmt.Errorf("perf: suite %q repeats metric %q", s.Suite, m.Name)
		}
		seen[m.Name] = true
		if m.Command == "" {
			return fmt.Errorf("perf: metric %q has no command", m.Name)
		}
		if m.TolerancePct < 0 {
			return fmt.Errorf("perf: metric %q has negative tolerance %v", m.Name, m.TolerancePct)
		}
		switch m.Direction {
		case Lower, Higher:
		default:
			return fmt.Errorf("perf: metric %q direction %q is not %q or %q", m.Name, m.Direction, Lower, Higher)
		}
		e := m.Extract
		switch e.Kind {
		case KindBench:
			if e.Bench == "" {
				return fmt.Errorf("perf: bench metric %q names no benchmark", m.Name)
			}
			switch e.Field {
			case "", "ns/op", "allocs/op", "B/op":
			default:
				return fmt.Errorf("perf: bench metric %q field %q is not ns/op, allocs/op or B/op", m.Name, e.Field)
			}
		case KindReport:
			if e.Key == "" {
				return fmt.Errorf("perf: report metric %q names no values key", m.Name)
			}
		case KindWallclock, KindNumber:
		default:
			return fmt.Errorf("perf: metric %q extract kind %q is not %q, %q, %q or %q",
				m.Name, e.Kind, KindBench, KindReport, KindWallclock, KindNumber)
		}
	}
	return nil
}

// Load reads and validates a baseline file.
func Load(path string) (*Suite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Suite
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return &s, nil
}

// Save writes the suite back as indented JSON (the -update path). HTML
// escaping is off so prose notes keep literal "->" and ">" instead of
// > entities.
func (s *Suite) Save(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
