package runners

import (
	"testing"

	"repro/internal/hostcpu"
	"repro/internal/workloads"
)

// smallCfg keeps test runs quick: a 4-SMM device, copies on.
func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.SMMs = 4
	cfg.GeMTCBatch = 128
	return cfg
}

func verifyTasks(t *testing.T, name string, n int) []workloads.TaskDef {
	t.Helper()
	b, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b.Make(workloads.Options{Tasks: n, Verify: true, Seed: 5, InputSize: 32})
}

func checkAll(t *testing.T, scheme string, tasks []workloads.TaskDef) {
	t.Helper()
	for i, td := range tasks {
		if err := td.Check(); err != nil {
			t.Fatalf("%s task %d: %v", scheme, i, err)
		}
	}
}

func TestPagodaRunCorrect(t *testing.T) {
	tasks := verifyTasks(t, "CONV", 40)
	r := RunPagoda(tasks, smallCfg())
	if r.Tasks != 40 {
		t.Fatalf("completed %d tasks, want 40", r.Tasks)
	}
	if r.Elapsed <= 0 || r.AvgLatency <= 0 {
		t.Fatalf("degenerate result %+v", r)
	}
	checkAll(t, "pagoda", tasks)
}

func TestHyperQRunCorrect(t *testing.T) {
	tasks := verifyTasks(t, "CONV", 40)
	r := RunHyperQ(tasks, smallCfg())
	if r.Tasks != 40 {
		t.Fatalf("completed %d, want 40", r.Tasks)
	}
	checkAll(t, "hyperq", tasks)
}

func TestGeMTCRunCorrect(t *testing.T) {
	tasks := verifyTasks(t, "CONV", 40)
	r := RunGeMTC(tasks, smallCfg())
	if r.Tasks != 40 {
		t.Fatalf("completed %d, want 40", r.Tasks)
	}
	checkAll(t, "gemtc", tasks)
}

func TestFusionRunCorrect(t *testing.T) {
	tasks := verifyTasks(t, "CONV", 40)
	r := RunFusion(tasks, smallCfg())
	if r.Tasks != 40 {
		t.Fatalf("completed %d, want 40", r.Tasks)
	}
	checkAll(t, "fusion", tasks)
}

// TestPThreadsRunCorrect checks that the CPU pool runs every task and
// charges its cycles: the makespan lies between the ideal 20-core split of
// the sequential time and the sequential time plus every task's dispatch.
// The CPU baselines run no kernel, so there is no result to Check.
func TestPThreadsRunCorrect(t *testing.T) {
	tasks := verifyTasks(t, "CONV", 40)
	r := RunPThreads(tasks, smallCfg())
	if r.Tasks != 40 {
		t.Fatalf("completed %d, want 40", r.Tasks)
	}
	cpu := hostcpu.Xeon20()
	seq := RunSequential(tasks).Elapsed
	if lo, hi := seq/float64(cpu.Cores), seq+40*cpu.DispatchCost; r.Elapsed < lo || r.Elapsed > hi {
		t.Fatalf("PThreads makespan %v outside [%v, %v]", r.Elapsed, lo, hi)
	}
}

func TestSequentialSlowerByCoreCount(t *testing.T) {
	// Tasks large enough that pool dispatch overhead doesn't dominate.
	b, _ := workloads.ByName("CONV")
	tasks := b.Make(workloads.Options{Tasks: 200, Seed: 5})
	seq := RunSequential(tasks)
	par := RunPThreads(tasks, smallCfg())
	speedup := seq.Elapsed / par.Elapsed
	if speedup < 5 || speedup > 21 {
		t.Fatalf("PThreads speedup over sequential = %.1f, want roughly up to 20x", speedup)
	}
}

func TestSyncWorkloadAcrossSchemes(t *testing.T) {
	// FilterBank uses syncBlock; every GPU scheme must still compute
	// correct results.
	for _, run := range []struct {
		name string
		fn   func([]workloads.TaskDef, Config) Result
	}{
		{"pagoda", RunPagoda}, {"hyperq", RunHyperQ}, {"gemtc", RunGeMTC}, {"fusion", RunFusion},
	} {
		b, _ := workloads.ByName("FB")
		tasks := b.Make(workloads.Options{Tasks: 16, Verify: true, Seed: 8, InputSize: 512})
		r := run.fn(tasks, smallCfg())
		if r.Tasks != 16 {
			t.Fatalf("%s completed %d, want 16", run.name, r.Tasks)
		}
		checkAll(t, run.name, tasks)
	}
}

func TestSharedMemoryWorkloadPagodaAndHyperQ(t *testing.T) {
	for _, run := range []struct {
		name string
		fn   func([]workloads.TaskDef, Config) Result
	}{
		{"pagoda", RunPagoda}, {"hyperq", RunHyperQ},
	} {
		b, _ := workloads.ByName("MM")
		tasks := b.Make(workloads.Options{Tasks: 12, Verify: true, Seed: 8, InputSize: 32, UseShared: true})
		r := run.fn(tasks, smallCfg())
		if r.Tasks != 12 {
			t.Fatalf("%s completed %d, want 12", run.name, r.Tasks)
		}
		checkAll(t, run.name, tasks)
	}
}

func TestPagodaBeatsHyperQOnNarrowTasks(t *testing.T) {
	// The headline claim at test scale: many narrow tasks, full device.
	b, _ := workloads.ByName("MB")
	tasks := b.Make(workloads.Options{Tasks: 1024, Threads: 128, Seed: 1})
	cfg := DefaultConfig() // full 24-SMM device
	pg := RunPagoda(tasks, cfg)
	hq := RunHyperQ(tasks, cfg)
	if pg.Tasks != 1024 || hq.Tasks != 1024 {
		t.Fatalf("incomplete runs: pagoda %d, hyperq %d", pg.Tasks, hq.Tasks)
	}
	if pg.Elapsed >= hq.Elapsed {
		t.Fatalf("Pagoda (%.0f) not faster than HyperQ (%.0f) on 1024 narrow tasks", pg.Elapsed, hq.Elapsed)
	}
}

func TestPagodaBeatsGeMTCOnIrregularTasks(t *testing.T) {
	b, _ := workloads.ByName("MB")
	tasks := b.Make(workloads.Options{Tasks: 1024, Threads: 128, Seed: 1})
	cfg := DefaultConfig()
	cfg.GeMTCBatch = 384
	pg := RunPagoda(tasks, cfg)
	gm := RunGeMTC(tasks, cfg)
	if pg.Elapsed >= gm.Elapsed {
		t.Fatalf("Pagoda (%.0f) not faster than GeMTC (%.0f) on irregular tasks", pg.Elapsed, gm.Elapsed)
	}
}

func TestFusionLatencyGrowsWithTaskCount(t *testing.T) {
	b, _ := workloads.ByName("MM")
	cfg := smallCfg()
	small := RunFusion(b.Make(workloads.Options{Tasks: 64, Seed: 2}), cfg)
	big := RunFusion(b.Make(workloads.Options{Tasks: 512, Seed: 2}), cfg)
	if big.AvgLatency < small.AvgLatency*3 {
		t.Fatalf("fused latency should grow ~linearly: 64 tasks %.0f, 512 tasks %.0f",
			small.AvgLatency, big.AvgLatency)
	}
}

func TestPagodaLatencyStaysFlat(t *testing.T) {
	// Fig. 10: "the average latency of each Pagoda task remains the same for
	// any number of launched tasks" — modulo queueing, it must grow far
	// slower than fusion's linear growth.
	b, _ := workloads.ByName("MM")
	cfg := smallCfg()
	small := RunPagoda(b.Make(workloads.Options{Tasks: 64, Seed: 2}), cfg)
	big := RunPagoda(b.Make(workloads.Options{Tasks: 512, Seed: 2}), cfg)
	if big.AvgLatency > small.AvgLatency*4 {
		t.Fatalf("Pagoda latency grew too fast: 64 tasks %.0f, 512 tasks %.0f",
			small.AvgLatency, big.AvgLatency)
	}
}

func TestPagodaBatchingSlower(t *testing.T) {
	// Fig. 11: continuous spawning beats batching on unbalanced tasks.
	b, _ := workloads.ByName("3DES")
	tasks := b.Make(workloads.Options{Tasks: 512, Threads: 128, Seed: 3})
	cfg := DefaultConfig()
	cfg.GeMTCBatch = 256
	cont := RunPagoda(tasks, cfg)
	cfg.PagodaBatching = true
	batch := RunPagoda(tasks, cfg)
	if cont.Elapsed >= batch.Elapsed {
		t.Fatalf("continuous (%.0f) should beat batching (%.0f)", cont.Elapsed, batch.Elapsed)
	}
}

func TestCopyDataAddsTime(t *testing.T) {
	b, _ := workloads.ByName("DCT")
	tasks := b.Make(workloads.Options{Tasks: 128, Seed: 4})
	cfg := smallCfg()
	with := RunHyperQ(tasks, cfg)
	cfg.CopyData = false
	without := RunHyperQ(tasks, cfg)
	if with.Elapsed <= without.Elapsed {
		t.Fatalf("copies add no time: with %.0f, without %.0f", with.Elapsed, without.Elapsed)
	}
	// DCT is copy-bound (Table 3: 81% copy): copies should dominate.
	if with.Elapsed < without.Elapsed*1.5 {
		t.Logf("note: DCT copy share lower than expected (with=%.0f without=%.0f)", with.Elapsed, without.Elapsed)
	}
}

func TestOccupancyOrdering(t *testing.T) {
	// Pagoda's task-warp occupancy should far exceed HyperQ's achieved
	// occupancy on narrow tasks (the §2 motivation). Tasks must be long
	// enough that the device, not the spawn path, is the bottleneck —
	// HyperQ then caps at 32 kernels x 4 warps = 128 of 1536 warps.
	b, _ := workloads.ByName("MB")
	tasks := b.Make(workloads.Options{Tasks: 1024, Threads: 128, Seed: 5, InputSize: 128})
	cfg := DefaultConfig()
	cfg.CopyData = false
	pg := RunPagoda(tasks, cfg)
	hq := RunHyperQ(tasks, cfg)
	if pg.Occupancy <= hq.Occupancy {
		t.Fatalf("Pagoda occupancy %.3f not above HyperQ %.3f", pg.Occupancy, hq.Occupancy)
	}
}

func TestDeterministicRunners(t *testing.T) {
	b, _ := workloads.ByName("FB")
	mk := func() []workloads.TaskDef {
		return b.Make(workloads.Options{Tasks: 96, Seed: 6})
	}
	cfg := smallCfg()
	for name, fn := range map[string]func([]workloads.TaskDef, Config) Result{
		"pagoda": RunPagoda, "hyperq": RunHyperQ, "gemtc": RunGeMTC, "fusion": RunFusion,
	} {
		a, b2 := fn(mk(), cfg), fn(mk(), cfg)
		if a.Elapsed != b2.Elapsed {
			t.Errorf("%s nondeterministic: %v vs %v", name, a.Elapsed, b2.Elapsed)
		}
	}
}

func TestGeMTCBatchBoundary(t *testing.T) {
	// Batch semantics: task i in batch b may only start after every task of
	// batch b-1 finished.
	b, _ := workloads.ByName("MB")
	tasks := b.Make(workloads.Options{Tasks: 64, Seed: 9})
	cfg := smallCfg()
	cfg.GeMTCBatch = 16
	var order []int
	for i := range tasks {
		i := i
		inner := tasks[i].Kernel
		tasks[i].Kernel = func(c workloads.DeviceCtx) {
			if c.WarpInBlock() == 0 {
				order = append(order, i)
			}
			inner(c)
		}
	}
	r := RunGeMTC(tasks, cfg)
	if r.Tasks != 64 {
		t.Fatalf("completed %d", r.Tasks)
	}
	// Batches of 16: every recorded start index must belong to the batch
	// whose predecessors all already started.
	seen := make([]bool, 64)
	started := 0
	for _, i := range order {
		batch := i / 16
		for j := 0; j < batch*16; j++ {
			if !seen[j] {
				t.Fatalf("task %d (batch %d) started before task %d of an earlier batch", i, batch, j)
			}
		}
		if !seen[i] {
			seen[i] = true
			started++
		}
	}
	if started != 64 {
		t.Fatalf("started %d distinct tasks", started)
	}
}
