package harness

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/runners"
)

// tinyParams makes each generator cheap enough to exercise structurally
// (rows present, values recorded); shape assertions live in harness_test.go
// at saturating scales.
func tinyParams() Params { return Params{Tasks: 48, SMMs: 4, Seed: 1} }

func TestFig6Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("harness sweep")
	}
	r := Fig6(tinyParams())
	want := 5 * len(runners.Schemes()) // 5 benchmarks x registered schemes
	if len(r.Rows) != want {
		t.Fatalf("fig6 rows = %d, want %d", len(r.Rows), want)
	}
	for _, key := range []string{"MB/pagoda/64", "DCT/hyperq/64", "MPE/gemtc/64", "MB/zorua/64"} {
		if r.Values[key] <= 0 {
			t.Errorf("fig6 missing series point %s", key)
		}
	}
}

func TestFig7Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("harness sweep")
	}
	r := Fig7(tinyParams())
	want := 8 * len(runners.Schemes())
	if len(r.Rows) != want {
		t.Fatalf("fig7 rows = %d, want %d", len(r.Rows), want)
	}
	for _, key := range []string{"geomean128/pagoda-vs-hyperq", "geomean128/pagoda-vs-zorua"} {
		if r.Values[key] <= 0 {
			t.Errorf("fig7 %s not recorded", key)
		}
	}
	// Work per task constant across thread counts: times comparable (same
	// order of magnitude) between 32 and 512 threads for a regular load.
	lo, hi := mustGet(t, r, "CONV/pagoda/32"), mustGet(t, r, "CONV/pagoda/512")
	if lo <= 0 || hi <= 0 {
		t.Fatalf("fig7 CONV series missing: %v %v", lo, hi)
	}
	if lo > hi*50 || hi > lo*50 {
		t.Errorf("fig7 CONV thread sweep wildly inconsistent: 32thr=%v 512thr=%v", lo, hi)
	}
}

func TestFig8Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("harness sweep")
	}
	r := Fig8(tinyParams())
	// MM and CONV x 4 thread counts.
	if len(r.Rows) != 8 {
		t.Fatalf("fig8 rows = %d, want 8", len(r.Rows))
	}
	for _, key := range []string{"MM/256/16", "CONV/2048/256"} {
		if r.Values[key] <= 0 {
			t.Errorf("fig8 missing point %s", key)
		}
	}
}

func TestFig9Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("harness sweep")
	}
	r := Fig9(tinyParams())
	if len(r.Rows) != 8 {
		t.Fatalf("fig9 rows = %d, want 8", len(r.Rows))
	}
	if r.Values["geomean/pagoda-vs-fusion"] <= 0 {
		t.Error("fig9 geomean not recorded")
	}
	for _, row := range r.Rows {
		name := row[0]
		for _, scheme := range []string{"fusion", "pthreads", "hyperq", "pagoda"} {
			if r.Values[name+"/"+scheme] <= 0 {
				t.Errorf("fig9 %s/%s missing", name, scheme)
			}
		}
	}
}

func TestTable3Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("harness sweep")
	}
	r := Table3(tinyParams())
	if len(r.Rows) != 8 {
		t.Fatalf("table3 rows = %d, want 8", len(r.Rows))
	}
	for _, row := range r.Rows {
		name := row[0]
		// copyfrac may legitimately be 0 (fully compute-bound), so a missing
		// key is only distinguishable through mustGet.
		f := mustGet(t, r, name+"/copyfrac")
		if f < 0 || f > 1 {
			t.Errorf("table3 %s copy fraction out of range: %v", name, f)
		}
	}
	// Directional check at any scale: DCT is the most copy-bound workload,
	// SLUD and MB the least (Table 3: 81% vs 3%/24%).
	dct, slud, mb := mustGet(t, r, "DCT/copyfrac"), mustGet(t, r, "SLUD/copyfrac"), mustGet(t, r, "MB/copyfrac")
	if dct <= slud {
		t.Errorf("table3: DCT copy share (%v) should exceed SLUD's (%v)", dct, slud)
	}
	if dct <= mb {
		t.Errorf("table3: DCT copy share (%v) should exceed MB's (%v)", dct, mb)
	}
}

func TestCPUSchemesStructure(t *testing.T) {
	// At a few dozen tasks OpenMP's fork-join can tie PThreads (no pool-tail
	// imbalance), so the winner assertion lives in hostcpu's bake-off test
	// at paper-like task counts; here we only check structure.
	p := tinyParams()
	p.Tasks = 1024
	r := CPUSchemes(p)
	if len(r.Rows) != 4 {
		t.Fatalf("cpuschemes rows = %d, want 4", len(r.Rows))
	}
	for _, row := range r.Rows {
		name := row[0]
		for _, scheme := range []string{"OpenMP", "OS-sched", "Python-pool", "PThreads"} {
			if r.Values[name+"/"+scheme] <= 0 {
				t.Errorf("cpuschemes %s/%s missing", name, scheme)
			}
		}
		if row[len(row)-1] != "PThreads" {
			t.Errorf("%s: best scheme = %s, want PThreads", name, row[len(row)-1])
		}
	}
}

func TestServeLatencyStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("harness sweep")
	}
	p := tinyParams()
	r := ServeLatency(p)
	// 2 rates x 3 policies x registered schemes.
	want := 2 * 3 * len(p.gpuSchemes())
	if len(r.Rows) != want {
		t.Fatalf("serve_latency rows = %d, want %d", len(r.Rows), want)
	}
	for _, key := range []string{
		"pagoda/unbounded/16000/p99us",
		"hyperq/queue64/256000/goodput",
		"gemtc/token/16000/drops",
		"zorua/unbounded/16000/p99us",
	} {
		if _, ok := r.Values[key]; !ok {
			t.Errorf("serve_latency missing value %s", key)
		}
	}
	for _, sc := range p.gpuSchemes() {
		for _, rate := range []string{"16000", "256000"} {
			if d := mustGet(t, r, sc.Key+"/unbounded/"+rate+"/drops"); d != 0 {
				t.Errorf("serve_latency %s unbounded@%s dropped %v tasks", sc.Key, rate, d)
			}
			g := mustGet(t, r, sc.Key+"/unbounded/"+rate+"/goodput")
			if g < 0 || g > 1 {
				t.Errorf("serve_latency %s goodput out of range: %v", sc.Key, g)
			}
		}
	}
}

func TestServeCapacityStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("harness sweep")
	}
	p := tinyParams()
	r := ServeCapacity(p)
	if len(r.Rows) != len(p.gpuSchemes()) {
		t.Fatalf("serve_capacity rows = %d, want %d", len(r.Rows), len(p.gpuSchemes()))
	}
	rates := []string{"4000", "8000", "16000", "32000", "64000", "128000", "256000", "512000"}
	for _, sc := range p.gpuSchemes() {
		for _, rate := range rates {
			if p99 := mustGet(t, r, sc.Key+"/p99us/"+rate); p99 <= 0 {
				t.Errorf("serve_capacity %s p99@%s = %v, want > 0", sc.Key, rate, p99)
			}
			g := mustGet(t, r, sc.Key+"/goodput/"+rate)
			if g < 0 || g > 1 {
				t.Errorf("serve_capacity %s goodput@%s out of range: %v", sc.Key, rate, g)
			}
		}
		// max-rate is 0 (nothing sustainable) or a ladder rate; mustGet also
		// pins that the headline key is recorded at all.
		max := mustGet(t, r, sc.Key+"/max-rate")
		found := max == 0
		for _, rate := range rates {
			if fmt.Sprintf("%.0f", max) == rate {
				found = true
			}
		}
		if !found {
			t.Errorf("serve_capacity %s max-rate %v is not on the ladder", sc.Key, max)
		}
	}
	// Offering more load never shrinks the unbounded-queueing tail: the top
	// of the ladder must be at least as slow as the bottom for every scheme.
	for _, sc := range p.gpuSchemes() {
		lo, hi := mustGet(t, r, sc.Key+"/p99us/4000"), mustGet(t, r, sc.Key+"/p99us/512000")
		if hi < lo {
			t.Errorf("serve_capacity %s p99 fell under load: %v at 4k/s, %v at 512k/s", sc.Key, lo, hi)
		}
	}
	// The capacity-summary note must name every swept scheme — the registry
	// regression for the old hard-coded three-scheme format string.
	var note string
	for _, n := range r.Notes {
		if strings.Contains(n, "max sustainable rate") {
			note = n
		}
	}
	if note == "" {
		t.Fatal("serve_capacity has no max-sustainable-rate note")
	}
	for _, sc := range p.gpuSchemes() {
		if !strings.Contains(note, sc.Display) {
			t.Errorf("capacity summary note omits scheme %s: %q", sc.Display, note)
		}
	}
}

func TestRunDispatchesAllIDs(t *testing.T) {
	if testing.Short() {
		t.Skip("harness sweep")
	}
	for _, id := range []string{"cpuschemes"} { // cheap one through Run()
		rep, err := Run(id, tinyParams())
		if err != nil || rep == nil || rep.ID != id {
			t.Fatalf("Run(%s) = %v, %v", id, rep, err)
		}
	}
}
