// Package trace collects execution timelines from the simulated GPU and the
// Pagoda runtime and exports them in the Chrome trace-event JSON format
// (chrome://tracing, Perfetto), giving the reproduction the profiler-style
// visibility (nvprof/nvvp) the paper's authors used to analyze runs.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Span is one completed interval on a named track.
type Span struct {
	Name  string            // e.g. "task 42", "kernel conv"
	Cat   string            // "task", "kernel", "threadblock", "copy"
	Track string            // e.g. "MTB12", "SMM3", "host0", "PCIe-H2D"
	Start float64           // cycles (ns at 1 GHz)
	End   float64           // cycles
	Args  map[string]string // extra attributes
}

// Tracer accumulates spans; the zero value is a disabled tracer.
type Tracer struct {
	enabled bool
	spans   []Span
}

// New returns an enabled tracer.
func New() *Tracer { return &Tracer{enabled: true} }

// Enabled reports whether the tracer records (nil-safe).
func (t *Tracer) Enabled() bool { return t != nil && t.enabled }

// Add records a completed span (nil-safe no-op when disabled).
func (t *Tracer) Add(s Span) {
	if !t.Enabled() {
		return
	}
	if s.End < s.Start {
		s.End = s.Start
	}
	t.spans = append(t.spans, s)
}

// Spans returns the recorded spans sorted by start time.
func (t *Tracer) Spans() []Span {
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Len returns the recorded span count.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// chromeEvent is the trace-event JSON schema ("X" = complete event).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeMeta struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// WriteChromeJSON renders the trace as a Chrome trace-event array. Tracks
// map to thread lanes; cycle timestamps become microseconds (1 cycle = 1 ns).
func (t *Tracer) WriteChromeJSON(w io.Writer) error {
	spans := t.Spans()
	// Assign stable tid per track, ordered by name.
	trackNames := map[string]bool{}
	for _, s := range spans {
		trackNames[s.Track] = true
	}
	ordered := make([]string, 0, len(trackNames))
	for n := range trackNames {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)
	tids := map[string]int{}
	for i, n := range ordered {
		tids[n] = i + 1
	}

	// Metadata follows the sorted track order, never map order, so the
	// output bytes are a function of the spans alone.
	var out []any
	for i, name := range ordered {
		out = append(out, chromeMeta{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: i + 1,
			Args: map[string]any{"name": name},
		})
	}
	for _, s := range spans {
		out = append(out, chromeEvent{
			Name: s.Name,
			Cat:  s.Cat,
			Ph:   "X",
			Ts:   s.Start / 1e3,
			Dur:  (s.End - s.Start) / 1e3,
			Pid:  1,
			Tid:  tids[s.Track],
			Args: s.Args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// CatStats aggregates the spans of one category: how many and how much busy
// time (cycles).
type CatStats struct {
	Count int
	Busy  float64
}

// Summary returns per-category span counts and busy time, for quick
// programmatic inspection.
func (t *Tracer) Summary() map[string]CatStats {
	sum := map[string]CatStats{}
	for _, s := range t.spans {
		e := sum[s.Cat]
		e.Count++
		e.Busy += s.End - s.Start
		sum[s.Cat] = e
	}
	return sum
}

// SummaryByTrack returns per-track, per-category aggregates — the grouping a
// merged multi-node trace is read by (tracks are "node00/serve-pagoda", ...,
// so sorting track names groups by node).
func (t *Tracer) SummaryByTrack() map[string]map[string]CatStats {
	sum := map[string]map[string]CatStats{}
	for _, s := range t.spans {
		per := sum[s.Track]
		if per == nil {
			per = map[string]CatStats{}
			sum[s.Track] = per
		}
		e := per[s.Cat]
		e.Count++
		e.Busy += s.End - s.Start
		per[s.Cat] = e
	}
	return sum
}

// SpanName formats a numbered span name.
func SpanName(prefix string, id int64) string { return fmt.Sprintf("%s %d", prefix, id) }
