package runners

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func olTasks(t testing.TB, n int) []workloads.TaskDef {
	t.Helper()
	tasks := workloads.Mandelbrot().Make(workloads.Options{Tasks: n, Seed: 1})
	if len(tasks) != n {
		t.Fatalf("made %d tasks, want %d", len(tasks), n)
	}
	return tasks
}

func olConfig() Config {
	cfg := DefaultConfig()
	cfg.SMMs = 4
	cfg.GeMTCBatch = 64
	return cfg
}

type olRunner struct {
	name string
	run  func([]workloads.TaskDef, OpenLoop, Config) (Result, []serve.Record)
}

// olRunners derives the gate list from the scheme registry, so a newly
// registered scheme is covered by every open-loop gate automatically.
func olRunners() []olRunner {
	var out []olRunner
	for _, s := range Schemes() {
		out = append(out, olRunner{s.Key, s.RunOpenLoop})
	}
	return out
}

// TestOpenLoopDeterministic: two identical open-loop runs must agree bit for
// bit — the Result and every per-task record.
func TestOpenLoopDeterministic(t *testing.T) {
	tasks := olTasks(t, 48)
	arr := serve.Poisson{Rate: 50e3, Seed: 3}.Times(len(tasks))
	for _, r := range olRunners() {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			r1, recs1 := r.run(tasks, OpenLoop{Arrivals: arr}, olConfig())
			r2, recs2 := r.run(tasks, OpenLoop{Arrivals: arr}, olConfig())
			if r1 != r2 {
				t.Errorf("results differ:\n%+v\n%+v", r1, r2)
			}
			for i := range recs1 {
				if recs1[i] != recs2[i] {
					t.Fatalf("record %d differs: %+v vs %+v", i, recs1[i], recs2[i])
				}
			}
		})
	}
}

// TestOpenLoopRecordsWellFormed: with unbounded admission every task
// completes, and each record respects Submit <= Start <= Done with Submit at
// the requested arrival instant.
func TestOpenLoopRecordsWellFormed(t *testing.T) {
	tasks := olTasks(t, 48)
	arr := serve.FixedRate{Rate: 20e3}.Times(len(tasks))
	for _, r := range olRunners() {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			res, recs := r.run(tasks, OpenLoop{Arrivals: arr}, olConfig())
			if res.Tasks != len(tasks) {
				t.Fatalf("completed %d of %d tasks", res.Tasks, len(tasks))
			}
			for i, rec := range recs {
				if rec.Dropped {
					t.Fatalf("record %d dropped under unbounded admission", i)
				}
				if rec.Submit != arr[i] {
					t.Errorf("record %d submit %v, want arrival %v", i, rec.Submit, arr[i])
				}
				if rec.Start < rec.Submit || rec.Done < rec.Start {
					t.Errorf("record %d out of order: %+v", i, rec)
				}
			}
			// Summarize accepts the records (panics on malformed input) and
			// the Result percentiles match an independent computation.
			s := serve.Summarize(recs, 1e6)
			if s.Completed != len(tasks) {
				t.Errorf("summary completed = %d", s.Completed)
			}
			if s.P99 != res.P99Latency || s.Max != res.MaxLatency {
				t.Errorf("summary tail (p99 %v max %v) disagrees with Result (%v, %v)",
					s.P99, s.Max, res.P99Latency, res.MaxLatency)
			}
		})
	}
}

// TestOpenLoopBoundedQueueDrops: a saturating burst against a tiny admission
// bound must shed load, and dropped records must carry no timing.
func TestOpenLoopBoundedQueueDrops(t *testing.T) {
	tasks := olTasks(t, 48)
	arr := serve.FixedRate{Rate: 5e6}.Times(len(tasks)) // way past capacity
	pol := serve.BoundedQueue{Limit: 4}
	for _, r := range olRunners() {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			res, recs := r.run(tasks, OpenLoop{Arrivals: arr, Admit: pol.Admit}, olConfig())
			dropped := 0
			for i, rec := range recs {
				if rec.Dropped {
					dropped++
					if rec.Start != 0 || rec.Done != 0 {
						t.Errorf("dropped record %d has timing: %+v", i, rec)
					}
				}
			}
			if dropped == 0 {
				t.Error("no drops despite 5M tasks/s against a 4-deep bound")
			}
			if res.Tasks+dropped != len(tasks) {
				t.Errorf("completed %d + dropped %d != %d", res.Tasks, dropped, len(tasks))
			}
		})
	}
}

// TestOpenLoopLoadRaisesTail: offering load far past saturation must not
// shrink the p99 — queueing delay accumulates in the open loop.
func TestOpenLoopLoadRaisesTail(t *testing.T) {
	tasks := olTasks(t, 48)
	sparse := serve.FixedRate{Rate: 2e3}.Times(len(tasks))
	flood := serve.FixedRate{Rate: 5e6}.Times(len(tasks))
	for _, r := range olRunners() {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			lo, _ := r.run(tasks, OpenLoop{Arrivals: sparse}, olConfig())
			hi, _ := r.run(tasks, OpenLoop{Arrivals: flood}, olConfig())
			if hi.P99Latency < lo.P99Latency {
				t.Errorf("p99 fell under overload: sparse %v, flood %v", lo.P99Latency, hi.P99Latency)
			}
		})
	}
}

// TestOpenLoopTraceSpans: AddServeSpans exports two spans per completed task
// and none for drops, on the node's track by default or on the tracks a
// track function names, with busy time equal to the records' wait and
// service totals per track.
func TestOpenLoopTraceSpans(t *testing.T) {
	tasks := olTasks(t, 24)
	arr := serve.FixedRate{Rate: 20e3}.Times(len(tasks))
	pagoda, _ := SchemeByKey("pagoda")
	for _, tc := range []struct {
		name  string
		nodes int
		track func(ti int) string
		want  []string
	}{
		{"one-node", 1, nil, []string{"node00/serve-pagoda"}},
		{"two-node-track-func", 2, func(ti int) string { return fmt.Sprintf("class%d", ti%3) },
			[]string{"class0", "class1", "class2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, cr := pagoda.RunCluster(tasks, ClusterOpenLoop{Arrivals: arr, Nodes: tc.nodes}, olConfig())
			tr := trace.New()
			cr.AddServeSpans(tr, tc.track)
			if want := 2 * res.Tasks; tr.Len() != want {
				t.Fatalf("trace has %d spans, want %d", tr.Len(), want)
			}
			var got []string
			for track := range tr.SummaryByTrack() {
				got = append(got, track)
			}
			slices.Sort(got)
			if !slices.Equal(got, tc.want) {
				t.Errorf("tracks = %v, want %v", got, tc.want)
			}
			track := tc.track
			if track == nil {
				track = func(ti int) string { return cr.Names[cr.NodeOf[ti]] }
			}
			// Summed node by node, in task order within a node: the
			// exporter's insertion order, so the float sums match exactly.
			wantBusy := map[string]map[string]sim.Time{}
			for node := range cr.Names {
				for ti, rec := range cr.Recs {
					if cr.NodeOf[ti] != node || rec.Dropped {
						continue
					}
					if wantBusy[track(ti)] == nil {
						wantBusy[track(ti)] = map[string]sim.Time{}
					}
					wantBusy[track(ti)]["wait"] += rec.Wait()
					wantBusy[track(ti)]["service"] += rec.Service()
				}
			}
			for tk, per := range tr.SummaryByTrack() {
				for cat, e := range per {
					if e.Busy != wantBusy[tk][cat] {
						t.Errorf("%s %s busy %v, records say %v", tk, cat, e.Busy, wantBusy[tk][cat])
					}
				}
				if len(per) != 2 {
					t.Errorf("%s has categories %v, want wait and service", tk, per)
				}
			}
		})
	}
}

// TestOpenLoopValidation: arrival/task mismatches are programmer errors.
func TestOpenLoopValidation(t *testing.T) {
	tasks := olTasks(t, 4)
	pagoda, _ := SchemeByKey("pagoda")
	for _, bad := range []OpenLoop{
		{Arrivals: []sim.Time{1, 2}},         // wrong length
		{Arrivals: []sim.Time{1, 2, 3, 2.5}}, // decreasing
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %v", bad.Arrivals)
				}
			}()
			pagoda.RunOpenLoop(tasks, bad, olConfig())
		}()
	}
}
