package core

import (
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// testSystem builds a small but complete Pagoda stack: engine, device, bus,
// CUDA context and runtime.
func testSystem(t *testing.T, smms int) (*sim.Engine, *Runtime) {
	t.Helper()
	return testSystemCfg(t, smms, func(*Config) {})
}

// testSystemCfg is testSystem with the runtime's DefaultConfig edited by
// edit.
func testSystemCfg(t *testing.T, smms int, edit func(*Config)) (*sim.Engine, *Runtime) {
	t.Helper()
	eng := sim.New()
	gcfg := gpu.TitanX()
	gcfg.NumSMMs = smms
	dev := gpu.NewDevice(eng, gcfg)
	bus := pcie.New(eng, pcie.Default())
	ctx := cuda.NewContext(eng, dev, bus, cuda.DefaultConfig())
	cfg := DefaultConfig()
	edit(&cfg)
	rt := NewRuntime(ctx, cfg)
	return eng, rt
}

// runHost executes body as the host process, shuts the runtime down and
// drains the engine.
func runHost(t *testing.T, eng *sim.Engine, rt *Runtime, body func(p *sim.Proc)) sim.Time {
	t.Helper()
	var end sim.Time
	eng.Spawn("host", func(p *sim.Proc) {
		body(p)
		end = eng.Now()
		rt.Shutdown(p)
	})
	eng.Run()
	if rt.kernel.EndTime == 0 {
		t.Fatal("MasterKernel did not terminate after Shutdown")
	}
	return end
}

func TestSpawnAndWaitSingleTask(t *testing.T) {
	eng, rt := testSystem(t, 2)
	ran := 0
	runHost(t, eng, rt, func(p *sim.Proc) {
		id := rt.TaskSpawn(p, TaskSpec{
			Threads: 64, Blocks: 1,
			Kernel: func(tc *TaskCtx) {
				tc.Compute(100)
				tc.ForEachLane(func(tid int) { ran++ })
			},
		})
		rt.Wait(p, id)
	})
	if ran != 64 {
		t.Fatalf("lane executions = %d, want 64", ran)
	}
	s := rt.Stats()
	if s.Spawned != 1 || s.Completed != 1 {
		t.Fatalf("stats = %+v, want 1 spawned, 1 completed", s)
	}
}

func TestGetTidCoversTask(t *testing.T) {
	eng, rt := testSystem(t, 2)
	seen := map[int]int{} // tid -> count per block
	runHost(t, eng, rt, func(p *sim.Proc) {
		id := rt.TaskSpawn(p, TaskSpec{
			Threads: 96, Blocks: 3,
			Kernel: func(tc *TaskCtx) {
				tc.ForEachLane(func(tid int) { seen[tc.BlockIdx()*1000+tid]++ })
			},
		})
		rt.Wait(p, id)
	})
	if len(seen) != 3*96 {
		t.Fatalf("distinct (block,tid) pairs = %d, want %d", len(seen), 3*96)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("tid %d ran %d times", k, n)
		}
	}
}

func TestManyTasksAllComplete(t *testing.T) {
	eng, rt := testSystem(t, 2)
	const tasks = 500
	done := make([]bool, tasks)
	runHost(t, eng, rt, func(p *sim.Proc) {
		for i := 0; i < tasks; i++ {
			i := i
			rt.TaskSpawn(p, TaskSpec{
				Threads: 128, Blocks: 1,
				Kernel: func(tc *TaskCtx) {
					tc.Compute(float64(50 + i%37))
					tc.GlobalRead(512)
					if tc.WarpInBlock() == 0 {
						done[i] = true
					}
				},
			})
		}
		rt.WaitAll(p)
	})
	for i, d := range done {
		if !d {
			t.Fatalf("task %d never ran", i)
		}
	}
	if s := rt.Stats(); s.Completed != tasks {
		t.Fatalf("Completed = %d, want %d", s.Completed, tasks)
	}
}

// TestTaskTableRecycling: more tasks than TaskTable entries forces
// recycling and the lazy aggregate copy-back path. The copy-back count and
// the instant the last task is waited for are pinned exactly, so a change
// to the protocol's steady state shows up as a number.
func TestTaskTableRecycling(t *testing.T) {
	eng, rt := testSystem(t, 1) // 2 MTBs x 32 rows = 64 entries
	total := rt.totalEntries * 4
	count := 0
	end := runHost(t, eng, rt, func(p *sim.Proc) {
		for i := 0; i < total; i++ {
			rt.TaskSpawn(p, TaskSpec{
				Threads: 32, Blocks: 1,
				Kernel: func(tc *TaskCtx) { tc.Compute(200); count++ },
			})
		}
		rt.WaitAll(p)
	})
	if count != total {
		t.Fatalf("tasks run = %d, want %d", count, total)
	}
	if rt.CopyBacks != 7 {
		t.Errorf("CopyBacks = %d, want 7 forced copy-backs as the table fills", rt.CopyBacks)
	}
	if end != 292917.3333333333 {
		t.Errorf("last task waited for at %v, want 292917.3333333333", end)
	}
}

func TestSharedMemoryTask(t *testing.T) {
	eng, rt := testSystem(t, 2)
	var got []byte
	runHost(t, eng, rt, func(p *sim.Proc) {
		id := rt.TaskSpawn(p, TaskSpec{
			Threads: 32, Blocks: 1, SharedMem: 2048,
			Kernel: func(tc *TaskCtx) {
				sm := tc.Shared()
				if len(sm) != 2048 {
					t.Errorf("Shared() len = %d, want 2048", len(sm))
				}
				tc.SharedWrite(128)
				sm[0], sm[2047] = 0xAB, 0xCD
				tc.SharedRead(128)
				got = []byte{sm[0], sm[2047]}
			},
		})
		rt.Wait(p, id)
	})
	if len(got) != 2 || got[0] != 0xAB || got[1] != 0xCD {
		t.Fatalf("shared memory contents lost: %v", got)
	}
}

func TestSharedMemoryContention(t *testing.T) {
	// Each MTB arena is 32 KB; tasks requesting 16 KB each force blocking
	// allocation and deferred deallocation across many tasks.
	eng, rt := testSystem(t, 1)
	const tasks = 40
	ran := 0
	runHost(t, eng, rt, func(p *sim.Proc) {
		for i := 0; i < tasks; i++ {
			rt.TaskSpawn(p, TaskSpec{
				Threads: 64, Blocks: 1, SharedMem: 16 * 1024,
				Kernel: func(tc *TaskCtx) {
					tc.Compute(300)
					_ = tc.Shared()[0]
					if tc.WarpInBlock() == 0 {
						ran++
					}
				},
			})
		}
		rt.WaitAll(p)
	})
	if ran != tasks {
		t.Fatalf("tasks run = %d, want %d", ran, tasks)
	}
	// All arenas drained after completion (an MTB that never allocated
	// has no allocator).
	for col, m := range rt.mtbs {
		if m.buddy == nil {
			continue
		}
		m.buddy.DrainPending()
		if m.buddy.Allocated() != 0 {
			t.Fatalf("MTB %d leaked %d bytes of shared memory", col, m.buddy.Allocated())
		}
	}
}

func TestSyncBlockBarrier(t *testing.T) {
	eng, rt := testSystem(t, 2)
	const warps = 4
	phase := 0
	violations := 0
	runHost(t, eng, rt, func(p *sim.Proc) {
		id := rt.TaskSpawn(p, TaskSpec{
			Threads: warps * 32, Blocks: 1, Sync: true,
			Kernel: func(tc *TaskCtx) {
				tc.Compute(float64(20 * (tc.WarpInBlock() + 1)))
				phase++
				tc.SyncBlock()
				if phase != warps {
					violations++
				}
			},
		})
		rt.Wait(p, id)
	})
	if violations != 0 {
		t.Fatalf("%d warps crossed syncBlock early", violations)
	}
}

func TestSyncBlockWithoutFlagPanics(t *testing.T) {
	eng, rt := testSystem(t, 2)
	defer func() { recover() }()
	panicked := false
	runHost(t, eng, rt, func(p *sim.Proc) {
		id := rt.TaskSpawn(p, TaskSpec{
			Threads: 64, Blocks: 1, // Sync: false
			Kernel: func(tc *TaskCtx) {
				defer func() {
					if recover() != nil {
						panicked = true
					}
				}()
				tc.SyncBlock()
			},
		})
		rt.Wait(p, id)
	})
	if !panicked {
		t.Fatal("SyncBlock without sync flag did not panic")
	}
}

func TestBarrierIDRecycling(t *testing.T) {
	// More concurrent sync tasks than the 16 named-barrier IDs per MTB.
	eng, rt := testSystem(t, 1)
	const tasks = 100
	ran := 0
	runHost(t, eng, rt, func(p *sim.Proc) {
		for i := 0; i < tasks; i++ {
			rt.TaskSpawn(p, TaskSpec{
				Threads: 64, Blocks: 1, Sync: true,
				Kernel: func(tc *TaskCtx) {
					tc.Compute(100)
					tc.SyncBlock()
					tc.Compute(50)
					if tc.WarpInBlock() == 0 {
						ran++
					}
				},
			})
		}
		rt.WaitAll(p)
	})
	if ran != tasks {
		t.Fatalf("sync tasks completed = %d, want %d", ran, tasks)
	}
	for col, m := range rt.mtbs {
		for id, used := range m.barInUse {
			if used {
				t.Errorf("MTB %d barrier %d leaked", col, id)
			}
		}
	}
}

func TestCheckNonBlocking(t *testing.T) {
	eng, rt := testSystem(t, 2)
	runHost(t, eng, rt, func(p *sim.Proc) {
		id := rt.TaskSpawn(p, TaskSpec{
			Threads: 32, Blocks: 1,
			Kernel: func(tc *TaskCtx) { tc.Compute(2_000_000) }, // 2 ms
		})
		if rt.Check(p, id) {
			t.Error("Check returned done for a 2ms task immediately after spawn")
		}
		rt.Wait(p, id)
		if !rt.Check(p, id) {
			t.Error("Check returned false after Wait")
		}
	})
}

func TestMultiThreadblockTask(t *testing.T) {
	eng, rt := testSystem(t, 2)
	blocks := map[int]int{}
	runHost(t, eng, rt, func(p *sim.Proc) {
		id := rt.TaskSpawn(p, TaskSpec{
			Threads: 64, Blocks: 5, Sync: true,
			Kernel: func(tc *TaskCtx) {
				tc.Compute(50)
				tc.SyncBlock()
				if tc.WarpInBlock() == 0 {
					blocks[tc.BlockIdx()]++
				}
			},
		})
		rt.Wait(p, id)
	})
	if len(blocks) != 5 {
		t.Fatalf("blocks seen = %v, want 5 distinct", blocks)
	}
}

func TestWarpLevelSchedulingOverlapsTasks(t *testing.T) {
	// Six tasks of 8 warps each on a tiny device: Pagoda interleaves their
	// warps in one MTB, so several are in flight at once. A kernel body
	// runs ahead of its charges, so the overlap is read from the runtime's
	// (sched, end) instants, not from inside the bodies: at the peak, more
	// than one task has been scheduled and not yet finished.
	eng, rt := testSystem(t, 1)
	type span struct{ sched, end sim.Time }
	var spans []span
	rt.OnTaskDone = func(_ TaskID, _, sched, end sim.Time) { spans = append(spans, span{sched, end}) }
	runHost(t, eng, rt, func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			rt.TaskSpawn(p, TaskSpec{
				Threads: 256, Blocks: 1,
				Kernel: func(tc *TaskCtx) {
					tc.Compute(5000)
					tc.GlobalRead(1024)
					tc.Compute(5000)
				},
			})
		}
		rt.WaitAll(p)
	})
	if len(spans) != 6 {
		t.Fatalf("%d tasks finished, want 6", len(spans))
	}
	maxConcurrent := 0
	for _, s := range spans {
		n := 0
		for _, o := range spans {
			if o.sched <= s.sched && s.sched < o.end {
				n++
			}
		}
		maxConcurrent = max(maxConcurrent, n)
	}
	if maxConcurrent < 2 {
		t.Fatalf("maxConcurrent = %d; warp-level scheduling should overlap tasks", maxConcurrent)
	}
}

func TestLatencyStatsPopulated(t *testing.T) {
	eng, rt := testSystem(t, 2)
	var delaySum sim.Time
	rt.OnTaskDone = func(_ TaskID, spawn, sched, _ sim.Time) { delaySum += sched - spawn }
	runHost(t, eng, rt, func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			rt.TaskSpawn(p, TaskSpec{
				Threads: 32, Blocks: 1,
				Kernel: func(tc *TaskCtx) { tc.Compute(1000) },
			})
		}
		rt.WaitAll(p)
	})
	s := rt.Stats()
	if s.AvgLatency <= 1000 {
		t.Fatalf("AvgLatency = %v, must exceed pure compute time", s.AvgLatency)
	}
	if s.MaxLatency < s.AvgLatency {
		t.Fatalf("MaxLatency %v < AvgLatency %v", s.MaxLatency, s.AvgLatency)
	}
	if delaySum <= 0 {
		t.Fatalf("summed sched delay = %v, want > 0", delaySum)
	}
}

func TestBatchingModeCompletes(t *testing.T) {
	eng := sim.New()
	gcfg := gpu.TitanX()
	gcfg.NumSMMs = 1
	dev := gpu.NewDevice(eng, gcfg)
	bus := pcie.New(eng, pcie.Default())
	ctx := cuda.NewContext(eng, dev, bus, cuda.DefaultConfig())
	cfg := DefaultConfig()
	cfg.Batching = true
	cfg.BatchSize = 16
	rt := NewRuntime(ctx, cfg)
	count := 0
	runHost(t, eng, rt, func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			rt.TaskSpawn(p, TaskSpec{
				Threads: 32, Blocks: 1,
				Kernel: func(tc *TaskCtx) { tc.Compute(500); count++ },
			})
		}
		rt.WaitAll(p)
	})
	if count != 50 {
		t.Fatalf("tasks run = %d, want 50", count)
	}
}

func TestBatchingSlowerThanContinuous(t *testing.T) {
	run := func(batching bool) sim.Time {
		eng := sim.New()
		gcfg := gpu.TitanX()
		gcfg.NumSMMs = 2
		dev := gpu.NewDevice(eng, gcfg)
		bus := pcie.New(eng, pcie.Default())
		ctx := cuda.NewContext(eng, dev, bus, cuda.DefaultConfig())
		cfg := DefaultConfig()
		cfg.Batching = batching
		cfg.BatchSize = 32
		rt := NewRuntime(ctx, cfg)
		return runHost(t, eng, rt, func(p *sim.Proc) {
			for i := 0; i < 256; i++ {
				// Irregular durations: batches are held back by stragglers.
				n := 1000.0
				if i%32 == 0 {
					n = 50000
				}
				rt.TaskSpawn(p, TaskSpec{
					Threads: 64, Blocks: 1,
					Kernel: func(tc *TaskCtx) { tc.Compute(n) },
				})
			}
			rt.WaitAll(p)
		})
	}
	cont, batch := run(false), run(true)
	if cont >= batch {
		t.Fatalf("continuous spawning (%v) should beat batching (%v) on irregular tasks", cont, batch)
	}
}

func TestValidateSpecPanics(t *testing.T) {
	eng, rt := testSystem(t, 1)
	specs := []TaskSpec{
		{Threads: 64, Blocks: 1},                                                  // nil kernel
		{Threads: 0, Blocks: 1, Kernel: func(*TaskCtx) {}},                        // no threads
		{Threads: 64, Blocks: 0, Kernel: func(*TaskCtx) {}},                       // no blocks
		{Threads: 2048, Blocks: 1, Kernel: func(*TaskCtx) {}},                     // wider than an MTB
		{Threads: 64, Blocks: 1, SharedMem: 64 * 1024, Kernel: func(*TaskCtx) {}}, // > arena
	}
	runHost(t, eng, rt, func(p *sim.Proc) {
		for i, spec := range specs {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("spec %d did not panic", i)
					}
				}()
				rt.TaskSpawn(p, spec)
			}()
		}
	})
}

func TestDeterministicEndToEnd(t *testing.T) {
	run := func() sim.Time {
		eng, rt := testSystem(t, 2)
		return runHost(t, eng, rt, func(p *sim.Proc) {
			for i := 0; i < 120; i++ {
				i := i
				sync := i%2 == 0
				rt.TaskSpawn(p, TaskSpec{
					Threads: 32 + (i%4)*32, Blocks: 1,
					SharedMem: (i % 3) * 1024,
					Sync:      sync,
					Kernel: func(tc *TaskCtx) {
						tc.Compute(float64(100 + i*7))
						tc.GlobalRead(256)
						if sync {
							tc.SyncBlock()
						}
					},
				})
			}
			rt.WaitAll(p)
		})
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic end-to-end: %v vs %v", a, b)
	}
}
