package gpu

import (
	"testing"

	"repro/internal/sim"
)

func testCfg() Config {
	cfg := TitanX()
	cfg.NumSMMs = 2 // small device keeps dispatch arithmetic visible
	return cfg
}

func TestKernelRunsAllWarps(t *testing.T) {
	eng := sim.New()
	dev := NewDevice(eng, testCfg())
	var lanes []int
	k := dev.Launch(LaunchSpec{
		Name: "count", GridDim: 3, BlockThreads: 64,
		Fn: func(c *Ctx) {
			c.Compute(10)
			var task Task
			task.Bind(c, 3, c.BlockIdx, nil)
			task.ForEachLane(func(tid int) { lanes = append(lanes, task.BlockIdx()*64+tid) })
		},
	})
	eng.Run()
	if !k.finished {
		t.Fatal("kernel did not finish")
	}
	if len(lanes) != 3*64 {
		t.Fatalf("saw %d lane executions, want %d", len(lanes), 3*64)
	}
	seen := map[int]bool{}
	for _, tid := range lanes {
		if tid < 0 || tid >= 192 || seen[tid] {
			t.Fatalf("bad or duplicate tid %d", tid)
		}
		seen[tid] = true
	}
}

func TestPartialWarp(t *testing.T) {
	eng := sim.New()
	dev := NewDevice(eng, testCfg())
	var count int
	dev.Launch(LaunchSpec{
		Name: "partial", GridDim: 1, BlockThreads: 40, // 2 warps: 32 + 8 lanes
		Fn: func(c *Ctx) {
			var task Task
			task.Bind(c, 1, 0, nil)
			task.ForEachLane(func(int) { count++ })
		},
	})
	eng.Run()
	if count != 40 {
		t.Fatalf("active lanes = %d, want 40", count)
	}
}

func TestThreadLimitBlocksDispatch(t *testing.T) {
	cfg := testCfg()
	cfg.NumSMMs = 1
	eng := sim.New()
	dev := NewDevice(eng, cfg)
	// Each TB = 1024 threads; 1 SMM holds 2 (2048 threads). Launch 3.
	var running, maxRunning int
	dev.Launch(LaunchSpec{
		Name: "big", GridDim: 3, BlockThreads: 1024,
		Fn: func(c *Ctx) {
			if c.WarpInBlock == 0 {
				running++
				if running > maxRunning {
					maxRunning = running
				}
			}
			c.Compute(100)
			if c.WarpInBlock == 0 {
				running--
			}
		},
	})
	eng.Run()
	if maxRunning != 2 {
		t.Fatalf("max concurrent TBs = %d, want 2 (2048-thread SMM limit)", maxRunning)
	}
}

func TestTBSlotLimit(t *testing.T) {
	cfg := testCfg()
	cfg.NumSMMs = 1
	eng := sim.New()
	dev := NewDevice(eng, cfg)
	// 64 tiny TBs of 32 threads: only 32 TBs may be resident per SMM even
	// though threads (64*32=2048) would fit.
	var resident, maxResident int
	dev.Launch(LaunchSpec{
		Name: "tiny", GridDim: 64, BlockThreads: 32,
		Fn: func(c *Ctx) {
			resident++
			if resident > maxResident {
				maxResident = resident
			}
			c.Compute(50)
			resident--
		},
	})
	eng.Run()
	if maxResident != 32 {
		t.Fatalf("max resident TBs = %d, want 32", maxResident)
	}
}

func TestSharedMemLimit(t *testing.T) {
	cfg := testCfg()
	cfg.NumSMMs = 1
	eng := sim.New()
	dev := NewDevice(eng, cfg)
	// 48KB shared per TB on a 96KB SMM: two resident at a time.
	var resident, maxResident int
	dev.Launch(LaunchSpec{
		Name: "smem", GridDim: 5, BlockThreads: 32, SharedPerTB: 48 * 1024,
		Fn: func(c *Ctx) {
			resident++
			if resident > maxResident {
				maxResident = resident
			}
			c.Compute(10)
			resident--
		},
	})
	eng.Run()
	if maxResident != 2 {
		t.Fatalf("max resident TBs = %d, want 2 (shared-memory limit)", maxResident)
	}
}

func TestRegisterLimit(t *testing.T) {
	cfg := testCfg()
	cfg.NumSMMs = 1
	eng := sim.New()
	dev := NewDevice(eng, cfg)
	// 255 regs * 256 threads = 65280 regs per TB; 64K regs/SMM => 1 resident.
	var resident, maxResident int
	dev.Launch(LaunchSpec{
		Name: "regs", GridDim: 3, BlockThreads: 256, RegsPerThread: 255,
		Fn: func(c *Ctx) {
			if c.WarpInBlock == 0 {
				resident++
				if resident > maxResident {
					maxResident = resident
				}
			}
			c.Compute(10)
			if c.WarpInBlock == 0 {
				resident--
			}
		},
	})
	eng.Run()
	if maxResident != 1 {
		t.Fatalf("max resident TBs = %d, want 1 (register limit)", maxResident)
	}
}

func TestSyncBlock(t *testing.T) {
	eng := sim.New()
	dev := NewDevice(eng, testCfg())
	// 4 warps; warp w computes 10*(w+1) cycles then syncs. After the barrier
	// every warp must observe phase counters from all warps.
	const warps = 4
	phase1 := 0
	errs := 0
	dev.Launch(LaunchSpec{
		Name: "sync", GridDim: 1, BlockThreads: warps * 32,
		Fn: func(c *Ctx) {
			c.Compute(float64(10 * (c.WarpInBlock + 1)))
			phase1++
			var task Task
			task.Bind(c, 1, 0, nil)
			task.SyncBlock()
			if phase1 != warps {
				errs++
			}
		},
	})
	eng.Run()
	if errs != 0 {
		t.Fatalf("%d warps crossed the barrier before all arrived", errs)
	}
}

func TestSyncBlockSingleWarpNoop(t *testing.T) {
	eng := sim.New()
	dev := NewDevice(eng, testCfg())
	dev.Launch(LaunchSpec{
		Name: "single", GridDim: 1, BlockThreads: 32,
		Fn: func(c *Ctx) { // must not panic or hang
			var task Task
			task.Bind(c, 1, 0, nil)
			task.SyncBlock()
		},
	})
	eng.Run()
}

func TestLatencyHiding(t *testing.T) {
	// The same total work with 1 warp vs 16 warps: many warps overlap global
	// latency, so total time shrinks dramatically. This is the core
	// underutilization mechanism the paper targets.
	run := func(warps int) sim.Time {
		eng := sim.New()
		cfg := testCfg()
		cfg.NumSMMs = 1
		dev := NewDevice(eng, cfg)
		dev.Launch(LaunchSpec{
			Name: "mem", GridDim: warps, BlockThreads: 32,
			Fn: func(c *Ctx) {
				for i := 0; i < 50; i++ {
					c.GlobalRead(128)
					c.Compute(20)
				}
			},
		})
		return eng.Run()
	}
	t1 := run(1)
	t16 := run(16)
	// 16x the work; if latency were not hidden it would take 16x as long.
	if t16 > t1*4 {
		t.Fatalf("no latency hiding: 1 warp %v, 16 warps %v", t1, t16)
	}
}

func TestKernelWaitDone(t *testing.T) {
	eng := sim.New()
	dev := NewDevice(eng, testCfg())
	k := dev.Launch(LaunchSpec{
		Name: "k", GridDim: 1, BlockThreads: 32,
		Fn: func(c *Ctx) { c.Compute(500) },
	})
	var waitTime sim.Time
	eng.Spawn("waiter", func(p *sim.Proc) {
		k.WaitDone(p)
		waitTime = eng.Now()
	})
	eng.Run()
	if waitTime != 500 {
		t.Fatalf("wait=%v, want 500", waitTime)
	}
}

func TestMetricsOccupancy(t *testing.T) {
	cfg := testCfg()
	cfg.NumSMMs = 1
	eng := sim.New()
	dev := NewDevice(eng, cfg)
	// 32 warps resident for the whole run on a 64-warp SMM => ~50% occupancy.
	dev.Launch(LaunchSpec{
		Name: "occ", GridDim: 1, BlockThreads: 1024,
		Fn: func(c *Ctx) { c.Compute(1000) },
	})
	eng.Run()
	m := dev.Metrics()
	if m.AvgOccupancy < 0.45 || m.AvgOccupancy > 0.55 {
		t.Fatalf("AvgOccupancy = %v, want ~0.5", m.AvgOccupancy)
	}
	if m.ResidentWarps != 0 {
		t.Errorf("ResidentWarps = %d after completion, want 0", m.ResidentWarps)
	}
}

func TestLaunchValidation(t *testing.T) {
	eng := sim.New()
	dev := NewDevice(eng, testCfg())
	for _, spec := range []LaunchSpec{
		{Name: "zero-grid", GridDim: 0, BlockThreads: 32},
		{Name: "fat-block", GridDim: 1, BlockThreads: 2048},
		{Name: "fat-smem", GridDim: 1, BlockThreads: 32, SharedPerTB: 64 * 1024},
	} {
		spec := spec
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("launch %q did not panic", spec.Name)
				}
			}()
			spec.Fn = func(*Ctx) {}
			dev.Launch(spec)
		}()
	}
}

func TestDispatchBalancesAcrossSMMs(t *testing.T) {
	cfg := testCfg() // 2 SMMs
	eng := sim.New()
	dev := NewDevice(eng, cfg)
	smms := map[int]int{}
	dev.Launch(LaunchSpec{
		Name: "bal", GridDim: 8, BlockThreads: 256,
		Fn: func(c *Ctx) {
			if c.WarpInBlock == 0 {
				smms[c.tb.smm.ID]++
			}
			c.Compute(100)
		},
	})
	eng.Run()
	if smms[0] != 4 || smms[1] != 4 {
		t.Fatalf("TB distribution = %v, want 4 per SMM", smms)
	}
}
