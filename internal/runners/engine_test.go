package runners

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestEngineStatsPinned pins the engine's work counters for one fig5 Pagoda
// cell, a single-device open-loop cell on Pagoda, GeMTC and HyperQ, an
// open-loop zorua cell whose device spills threadblocks, and an elastic
// Pagoda fleet shaped like the fleet_autoscale benchmark. The
// counts are deterministic, so a change that adds events or coroutine
// switches shows up here as a number, not as noise in a wall-clock gate.
// Re-capture them only for an intentional change to how the model
// schedules work, and say why. A task kernel's cost ops are recorded on a
// tape and replayed as steps of the warp's Resume, so a task warp resumes
// once per tape (per SyncBlock segment), not once per op; LaneEvents + HeapPushes +
// DelayPushes counts every event queued. The GPU model's fixed latencies
// have fixed-delay lanes (sim.Engine.RegisterDelay), so HeapPushes +
// DelayPushes is exactly the HeapPushes of an engine without them, and
// every other count is the same. The MasterKernel and the GeMTC
// SuperKernel are stepped launches: a warp waits on the event loop,
// counted as steps, and takes a coroutine (a handoff) only to run a task's
// body or, for Pagoda's scheduler warp, its loop. The MasterKernel is also
// OnDemand: an executor warp is started, one event, only when its
// scheduler fills its WarpTable slot, and ends with its task, so an idle
// executor costs no event at launch or at Shutdown. A warp of a threadblock
// the zorua coordinator spilled waits out its swap-in delay as its first
// step, before its Fn takes a coroutine.
func TestEngineStatsPinned(t *testing.T) {
	for _, sh := range engineShapes(t) {
		if got := sh.run(); got != sh.want {
			t.Errorf("%s: Stats = %#v, want %#v", sh.name, got, sh.want)
		}
	}
}

// BenchmarkEngineCounts reports the engine's work per task in four of
// TestEngineStatsPinned's shapes (the fig5 Pagoda cell, the open-loop
// Pagoda cell, the elastic fleet and the spilling zorua cell), so
// pagodaperf can gate the counts beside its timings:
//
//	go test -bench=BenchmarkEngineCounts -benchtime=1x -run='^$' ./internal/runners/
func BenchmarkEngineCounts(b *testing.B) {
	for _, sh := range engineShapes(b) {
		if !strings.HasPrefix(sh.name, "pagoda_") && sh.name != "zorua_open_loop" {
			continue
		}
		b.Run(sh.name, func(b *testing.B) {
			var st sim.Stats
			for i := 0; i < b.N; i++ {
				st = sh.run()
			}
			n := float64(sh.tasks)
			for _, m := range []struct {
				v    int64
				unit string
			}{
				{st.Events, "events/task"}, {st.HeapPushes, "heap_pushes/task"},
				{st.DelayPushes, "delay_pushes/task"}, {st.LaneEvents, "lane_events/task"},
				{st.Rekeys, "rekeys/task"}, {st.Steps, "steps/task"}, {st.Handoffs, "handoffs/task"},
				{st.SelfResumes, "self_resumes/task"},
			} {
				b.ReportMetric(float64(m.v)/n, m.unit)
			}
		})
	}
}

// engineShape is one fleet run whose engine counts are pinned.
type engineShape struct {
	name  string
	tasks int
	run   func() sim.Stats
	want  sim.Stats
}

func engineShapes(tb testing.TB) []engineShape {
	mb, _ := workloads.ByName("MB")
	cfg := DefaultConfig()
	cfg.SMMs = 8
	closed := mb.Make(workloads.Options{Tasks: 256, Threads: 128, Seed: 1})

	ol := olTasks(tb, 48)
	arr := serve.Poisson{Rate: 50e3, Seed: 3}.Times(len(ol))

	const n = 600
	el := mb.Make(workloads.Options{Tasks: n, Threads: 128, Seed: 1})
	tu := autoscale.DefaultTuning()
	tu.SLO = 1000e3
	scaler, err := autoscale.NewPolicy("predictive", tu)
	if err != nil {
		tb.Fatal(err)
	}
	route, err := cluster.NewPolicy("rr", 1)
	if err != nil {
		tb.Fatal(err)
	}
	elastic := func() sim.Stats {
		_, cr := runFleet(el, ClusterOpenLoop{
			Arrivals: serve.Diurnal{MeanRate: 1.28e6, Swing: 0.6, Period: 400_000, Seed: 1}.Times(n),
			Policy:   route(),
			Admit:    func() func(sim.Time, int) bool { return serve.BoundedQueue{Limit: 32}.Admit },
			Scaler: &autoscale.Config{Min: 8, Max: 32, Policy: scaler,
				Interval: 50_000, Warmup: 200_000, Cooldown: 100_000},
		}, DefaultConfig(), "pagoda", newPagodaNode)
		return cr.Engine
	}

	// The zorua shape's tasks are shared-memory-bound on a 2-SMM device (4
	// TBs per SMM physically), so the coordinator admits past physical
	// capacity and warps pay a swap-in delay.
	zt := mb.Make(workloads.Options{Tasks: 64, Threads: 64, Seed: 1})
	for i := range zt {
		zt[i].SharedMem = 24 * 1024
	}
	zcfg := DefaultConfig()
	zcfg.SMMs = 2
	zarr := serve.Poisson{Rate: 400e3, Seed: 2}.Times(len(zt))
	zorua := func() sim.Stats {
		var nodes []*hyperqNode
		_, cr := runFleet(zt, ClusterOpenLoop{Arrivals: zarr}, zcfg, "zorua",
			func(eng *sim.Engine, b nodeBase) fleetNode {
				n := newZoruaNode(eng, b)
				nodes = append(nodes, n.(*hyperqNode))
				return n
			})
		for _, n := range nodes {
			if n.sys.dev.Virt.SpilledTBs == 0 {
				tb.Fatalf("zorua shape: node %s spilled no threadblock", n.name)
			}
		}
		return cr.Engine
	}

	return []engineShape{
		{"pagoda_fig5", len(closed), func() sim.Stats {
			_, cr := runFleet(closed, ClusterOpenLoop{Arrivals: make([]sim.Time, len(closed)), closedLoop: true},
				cfg, "pagoda", newPagodaNode)
			return cr.Engine
		}, sim.Stats{Events: 548688, Handoffs: 51522, SelfResumes: 9232, PeakRunning: 468,
			LaneEvents: 228914, HeapPushes: 245302, DelayPushes: 74472, Rekeys: 157213, Steps: 262160, PeakPending: 164}},
		{"pagoda_open_loop", len(ol), func() sim.Stats {
			_, cr := runFleet(ol, ClusterOpenLoop{Arrivals: arr}, olConfig(), "pagoda", newPagodaNode)
			return cr.Engine
		}, sim.Stats{Events: 85418, Handoffs: 2916, SelfResumes: 1544, PeakRunning: 43,
			LaneEvents: 36535, HeapPushes: 36409, DelayPushes: 12474, Rekeys: 18867, Steps: 45180, PeakPending: 25}},
		{"gemtc_open_loop", len(ol), func() sim.Stats {
			_, cr := runFleet(ol, ClusterOpenLoop{Arrivals: arr}, olConfig(), "gemtc", newGeMTCNode)
			return cr.Engine
		}, sim.Stats{Events: 61527, Handoffs: 785, SelfResumes: 67, PeakRunning: 63,
			LaneEvents: 40646, HeapPushes: 9189, DelayPushes: 11692, Rekeys: 31909, Steps: 51590, PeakPending: 257}},
		{"hyperq_open_loop", len(ol), func() sim.Stats {
			_, cr := runFleet(ol, ClusterOpenLoop{Arrivals: arr}, olConfig(), "hyperq", newHyperQNode)
			return cr.Engine
		}, sim.Stats{Events: 53579, Handoffs: 1130, SelfResumes: 212, PeakRunning: 62,
			LaneEvents: 33666, HeapPushes: 8781, DelayPushes: 11132, Rekeys: 25732, Steps: 43840, PeakPending: 34}},
		{"zorua_open_loop", len(zt), zorua, sim.Stats{Events: 50666, Handoffs: 1137, SelfResumes: 197, PeakRunning: 58,
			LaneEvents: 27418, HeapPushes: 14216, DelayPushes: 9032, Rekeys: 21804, Steps: 35720, PeakPending: 34}},
		{"pagoda_elastic", n, elastic, sim.Stats{Events: 1162725, Handoffs: 53465, SelfResumes: 10962, PeakRunning: 2287,
			LaneEvents: 500082, HeapPushes: 493453, DelayPushes: 169190, Rekeys: 238969, Steps: 614352, PeakPending: 1408}},
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
