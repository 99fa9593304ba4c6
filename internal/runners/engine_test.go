package runners

import (
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestEngineStatsPinned pins the engine's work counters for one fig5 Pagoda
// cell and a single-device open-loop cell on Pagoda and on GeMTC. The counts are deterministic,
// so a change that adds events or coroutine switches shows up here as a
// number, not as noise in a wall-clock gate. Re-capture them only for an
// intentional change to how the model schedules work, and say why. A task
// kernel's cost ops are recorded on a tape and replayed as chained steps,
// so a task warp resumes once per tape (per SyncBlock segment), not once
// per op; LaneEvents + HeapPushes counts every event queued. A GeMTC worker
// warp is stepped: it runs its queue pops and barriers on the event loop,
// counted as steps, and takes a coroutine (a handoff) only for a claimed
// task's body.
func TestEngineStatsPinned(t *testing.T) {
	mb, _ := workloads.ByName("MB")
	cfg := DefaultConfig()
	cfg.SMMs = 8
	tasks := mb.Make(workloads.Options{Tasks: 256, Threads: 128, Seed: 1})
	_, closed := runFleet(tasks, ClusterOpenLoop{Arrivals: make([]sim.Time, len(tasks)), closedLoop: true},
		cfg, "pagoda", newPagodaNode)
	if want := (sim.Stats{Events: 549083, Handoffs: 51917, SelfResumes: 9232, PeakRunning: 488,
		LaneEvents: 229309, HeapPushes: 319774, Rekeys: 157213, Steps: 262160, PeakPending: 412}); closed.Engine != want {
		t.Errorf("fig5 MB Pagoda cell: Stats = %#v, want %#v", closed.Engine, want)
	}

	ol := olTasks(t, 48)
	arr := serve.Poisson{Rate: 50e3, Seed: 3}.Times(len(ol))
	_, open := runFleet(ol, ClusterOpenLoop{Arrivals: arr}, olConfig(), "pagoda", newPagodaNode)
	if want := (sim.Stats{Events: 85466, Handoffs: 2964, SelfResumes: 1544, PeakRunning: 73,
		LaneEvents: 36583, HeapPushes: 48883, Rekeys: 18867, Steps: 45180, PeakPending: 58}); open.Engine != want {
		t.Errorf("open-loop Pagoda cell: Stats = %#v, want %#v", open.Engine, want)
	}

	_, gemtc := runFleet(ol, ClusterOpenLoop{Arrivals: arr}, olConfig(), "gemtc", newGeMTCNode)
	if want := (sim.Stats{Events: 61527, Handoffs: 785, SelfResumes: 67, PeakRunning: 63,
		LaneEvents: 40646, HeapPushes: 20881, Rekeys: 31909, Steps: 51590, PeakPending: 257}); gemtc.Engine != want {
		t.Errorf("open-loop GeMTC cell: Stats = %#v, want %#v", gemtc.Engine, want)
	}
}

// TestClosedFleetsLeaveNoGoroutines: runners close their engine, so after
// one warm-up run fills the coroutine pool, further one-node Pagoda and
// GeMTC fleets, and an elastic GeMTC fleet whose drained nodes retire with
// idle stepped workers, neither start nor strand a goroutine. (The count
// may drop: an earlier test's goroutines can still be exiting when it is
// first read.)
func TestClosedFleetsLeaveNoGoroutines(t *testing.T) {
	cfg := olConfig()
	gemtc, _ := SchemeByKey("gemtc")
	runBoth := func() {
		tasks := olTasks(t, 32)
		RunPagoda(tasks, cfg)
		RunGeMTC(olTasks(t, 32), cfg)
		const n = 64
		_, cr := gemtc.RunCluster(olTasks(t, n), ClusterOpenLoop{
			Arrivals: serve.FlashCrowd{BaseRate: 32e3, SpikeRate: 2e6,
				SpikeAt: 500_000, SpikeDur: 1_000_000, Seed: 2}.Times(n),
			Policy: cluster.LeastOutstanding{},
			Scaler: elasticTestScaler("reactive", 1, 4),
		}, cfg)
		if cr.Scale == nil || cr.Scale.ScaleOuts == 0 {
			t.Fatal("the elastic GeMTC fleet never scaled out")
		}
	}
	runBoth()
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		runBoth()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d after five more closed runs, %d after the warm-up", after, before)
	}
}
