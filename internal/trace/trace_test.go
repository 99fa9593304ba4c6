package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"
)

func TestDisabledTracerIsNoop(t *testing.T) {
	var nilT *Tracer
	if nilT.Enabled() {
		t.Fatal("nil tracer enabled")
	}
	nilT.Add(Span{Name: "x"}) // must not panic
	if nilT.Len() != 0 {
		t.Fatal("nil tracer recorded")
	}
	zero := &Tracer{}
	zero.Add(Span{Name: "x"})
	if zero.Len() != 0 {
		t.Fatal("zero tracer recorded")
	}
}

func TestSpansSorted(t *testing.T) {
	tr := New()
	tr.Add(Span{Name: "b", Start: 100, End: 200})
	tr.Add(Span{Name: "a", Start: 10, End: 50})
	s := tr.Spans()
	if s[0].Name != "a" || s[1].Name != "b" {
		t.Fatalf("spans not sorted by start: %+v", s)
	}
}

func TestNegativeDurationClamped(t *testing.T) {
	tr := New()
	tr.Add(Span{Name: "x", Start: 100, End: 50})
	if s := tr.Spans()[0]; s.End != s.Start {
		t.Fatalf("negative duration not clamped: %+v", s)
	}
}

func TestChromeJSONWellFormed(t *testing.T) {
	tr := New()
	tr.Add(Span{Name: "task 1", Cat: "task", Track: "MTB00", Start: 1000, End: 3000,
		Args: map[string]string{"k": "v"}})
	tr.Add(Span{Name: "kernel", Cat: "kernel", Track: "kernels", Start: 0, End: 5000})
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var arr []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &arr); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	// 2 thread_name metadata + 2 events.
	if len(arr) != 4 {
		t.Fatalf("got %d records, want 4", len(arr))
	}
	if !strings.Contains(buf.String(), `"ph":"X"`) {
		t.Fatal("no complete events emitted")
	}
	// Timestamps are microseconds: the 1000-cycle start becomes 1.
	found := false
	for _, rec := range arr {
		if rec["name"] == "task 1" {
			found = true
			if rec["ts"].(float64) != 1 {
				t.Errorf("ts = %v, want 1 (us)", rec["ts"])
			}
			if rec["dur"].(float64) != 2 {
				t.Errorf("dur = %v, want 2 (us)", rec["dur"])
			}
		}
	}
	if !found {
		t.Fatal("task span missing from JSON")
	}
}

// TestChromeJSONByteDeterministic writes one 12-track trace twice: the bytes
// must match, with thread_name metadata in sorted track order.
func TestChromeJSONByteDeterministic(t *testing.T) {
	tr := New()
	for i := 0; i < 12; i++ {
		tr.Add(Span{Name: SpanName("task", int64(i)), Cat: "task",
			Track: fmt.Sprintf("MTB%02d", (7*i)%12), Start: float64(i), End: float64(i + 5)})
	}
	write := func() []byte {
		var buf bytes.Buffer
		if err := tr.WriteChromeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := write()
	if again := write(); !bytes.Equal(first, again) {
		t.Fatalf("two writes of one trace differ:\n%s\n%s", first, again)
	}
	var arr []map[string]any
	if err := json.Unmarshal(first, &arr); err != nil {
		t.Fatal(err)
	}
	var tracks []string
	for track := range tr.SummaryByTrack() {
		tracks = append(tracks, track)
	}
	sort.Strings(tracks)
	for i, want := range tracks {
		meta := arr[i]
		if meta["ph"] != "M" || meta["args"].(map[string]any)["name"] != want || meta["tid"].(float64) != float64(i+1) {
			t.Errorf("metadata %d = %v, want thread_name %q with tid %d", i, meta, want, i+1)
		}
	}
}

func TestSummary(t *testing.T) {
	tr := New()
	tr.Add(Span{Cat: "task", Start: 0, End: 10})
	tr.Add(Span{Cat: "task", Start: 5, End: 25})
	tr.Add(Span{Cat: "kernel", Start: 0, End: 100})
	sum := tr.Summary()
	if sum["task"].Count != 2 || sum["task"].Busy != 30 {
		t.Fatalf("task summary = %+v", sum["task"])
	}
	if sum["kernel"].Count != 1 || sum["kernel"].Busy != 100 {
		t.Fatalf("kernel summary = %+v", sum["kernel"])
	}
}

func TestSpanName(t *testing.T) {
	if got := SpanName("task", 42); got != "task 42" {
		t.Fatalf("SpanName = %q", got)
	}
}
