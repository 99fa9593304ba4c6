package runners

import (
	"runtime"
	"testing"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestEngineStatsPinned pins the engine's work counters for one fig5 Pagoda
// cell, a single-device open-loop cell on Pagoda and on GeMTC, and an
// elastic Pagoda fleet shaped like the fleet_autoscale benchmark. The
// counts are deterministic, so a change that adds events or coroutine
// switches shows up here as a number, not as noise in a wall-clock gate.
// Re-capture them only for an intentional change to how the model
// schedules work, and say why. A task kernel's cost ops are recorded on a
// tape and replayed as chained steps, so a task warp resumes once per tape
// (per SyncBlock segment), not once per op; LaneEvents + HeapPushes counts
// every event queued. The MasterKernel and the GeMTC SuperKernel are
// stepped launches: a warp waits on the event loop, counted as steps, and
// takes a coroutine (a handoff) only to run a task's body or, for
// Pagoda's scheduler warp, its loop. The MasterKernel is also OnDemand:
// an executor warp is started, one event, only when its scheduler fills
// its WarpTable slot, and ends with its task, so an idle executor costs no
// event at launch or at Shutdown.
func TestEngineStatsPinned(t *testing.T) {
	mb, _ := workloads.ByName("MB")
	cfg := DefaultConfig()
	cfg.SMMs = 8
	tasks := mb.Make(workloads.Options{Tasks: 256, Threads: 128, Seed: 1})
	_, closed := runFleet(tasks, ClusterOpenLoop{Arrivals: make([]sim.Time, len(tasks)), closedLoop: true},
		cfg, "pagoda", newPagodaNode)
	if want := (sim.Stats{Events: 548688, Handoffs: 51522, SelfResumes: 9232, PeakRunning: 468,
		LaneEvents: 228914, HeapPushes: 319774, Rekeys: 157213, Steps: 262160, PeakPending: 164}); closed.Engine != want {
		t.Errorf("fig5 MB Pagoda cell: Stats = %#v, want %#v", closed.Engine, want)
	}

	ol := olTasks(t, 48)
	arr := serve.Poisson{Rate: 50e3, Seed: 3}.Times(len(ol))
	_, open := runFleet(ol, ClusterOpenLoop{Arrivals: arr}, olConfig(), "pagoda", newPagodaNode)
	if want := (sim.Stats{Events: 85418, Handoffs: 2916, SelfResumes: 1544, PeakRunning: 43,
		LaneEvents: 36535, HeapPushes: 48883, Rekeys: 18867, Steps: 45180, PeakPending: 25}); open.Engine != want {
		t.Errorf("open-loop Pagoda cell: Stats = %#v, want %#v", open.Engine, want)
	}

	_, gemtc := runFleet(ol, ClusterOpenLoop{Arrivals: arr}, olConfig(), "gemtc", newGeMTCNode)
	if want := (sim.Stats{Events: 61527, Handoffs: 785, SelfResumes: 67, PeakRunning: 63,
		LaneEvents: 40646, HeapPushes: 20881, Rekeys: 31909, Steps: 51590, PeakPending: 257}); gemtc.Engine != want {
		t.Errorf("open-loop GeMTC cell: Stats = %#v, want %#v", gemtc.Engine, want)
	}

	const n = 600
	el := mb.Make(workloads.Options{Tasks: n, Threads: 128, Seed: 1})
	tu := autoscale.DefaultTuning()
	tu.SLO = 1000e3
	scaler, err := autoscale.NewPolicy("predictive", tu)
	if err != nil {
		t.Fatal(err)
	}
	route, err := cluster.NewPolicy("rr", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, elastic := runFleet(el, ClusterOpenLoop{
		Arrivals: serve.Diurnal{MeanRate: 1.28e6, Swing: 0.6, Period: 400_000, Seed: 1}.Times(n),
		Policy:   route(),
		Admit:    func() func(sim.Time, int) bool { return serve.BoundedQueue{Limit: 32}.Admit },
		Scaler: &autoscale.Config{Min: 8, Max: 32, Policy: scaler,
			Interval: 50_000, Warmup: 200_000, Cooldown: 100_000},
	}, DefaultConfig(), "pagoda", newPagodaNode)
	if want := (sim.Stats{Events: 1162725, Handoffs: 53465, SelfResumes: 10962, PeakRunning: 2287,
		LaneEvents: 500082, HeapPushes: 662643, Rekeys: 238969, Steps: 614352, PeakPending: 1408}); elastic.Engine != want {
		t.Errorf("elastic Pagoda fleet: Stats = %#v, want %#v", elastic.Engine, want)
	}
}

// TestClosedFleetsLeaveNoGoroutines: runners close their engine, so after
// one warm-up run fills the coroutine pool, further one-node Pagoda and
// GeMTC fleets, and elastic Pagoda and GeMTC fleets whose drained nodes
// retire with idle warps (MasterKernel schedulers, stepped SuperKernel
// workers), neither start nor strand a goroutine. (The count may drop: an
// earlier test's goroutines can still be exiting when it is first read.)
func TestClosedFleetsLeaveNoGoroutines(t *testing.T) {
	cfg := olConfig()
	runAll := func() {
		tasks := olTasks(t, 32)
		RunPagoda(tasks, cfg)
		RunGeMTC(olTasks(t, 32), cfg)
		for _, key := range []string{"pagoda", "gemtc"} {
			sc, _ := SchemeByKey(key)
			const n = 64
			_, cr := sc.RunCluster(olTasks(t, n), ClusterOpenLoop{
				Arrivals: serve.FlashCrowd{BaseRate: 32e3, SpikeRate: 2e6,
					SpikeAt: 500_000, SpikeDur: 1_000_000, Seed: 2}.Times(n),
				Policy: cluster.LeastOutstanding{},
				Scaler: elasticTestScaler("reactive", 1, 4),
			}, cfg)
			if cr.Scale == nil || cr.Scale.ScaleOuts == 0 {
				t.Fatalf("the elastic %s fleet never scaled out", key)
			}
		}
	}
	runAll()
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		runAll()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d after five more closed runs, %d after the warm-up", after, before)
	}
}
