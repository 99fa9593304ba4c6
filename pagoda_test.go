package pagoda

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/gpu"
)

// smallConfig shrinks the device for fast tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.GPU.NumSMMs = 2
	return cfg
}

func TestSystemRoundTrip(t *testing.T) {
	sys := New(smallConfig())
	ran := 0
	end := sys.Run(func(h *Host) {
		id := h.Spawn(Task{
			Threads: 64,
			Kernel: func(tc *TaskCtx) {
				tc.ForEachLane(func(tid int) { ran++ })
				tc.Compute(100)
			},
		})
		h.Wait(id)
	})
	if ran != 64 {
		t.Fatalf("lanes ran = %d, want 64", ran)
	}
	if end <= 0 {
		t.Fatal("no simulated time elapsed")
	}
	st := sys.Stats()
	if st.Completed != 1 || st.Spawned != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSpawnDefaults(t *testing.T) {
	sys := New(smallConfig())
	var threads, blocks int
	sys.Run(func(h *Host) {
		id := h.Spawn(Task{Kernel: func(tc *TaskCtx) {
			threads = tc.Threads()
			blocks = tc.Blocks()
		}})
		h.Wait(id)
	})
	if threads != 128 || blocks != 1 {
		t.Fatalf("defaults = %d threads x %d blocks, want 128 x 1", threads, blocks)
	}
}

func TestHostGoConcurrentSpawners(t *testing.T) {
	sys := New(smallConfig())
	count := 0
	sys.Run(func(h *Host) {
		done := 0
		for i := 0; i < 3; i++ {
			h.Go("spawner", func(sh *Host) {
				for j := 0; j < 20; j++ {
					sh.Spawn(Task{Threads: 32, Kernel: func(tc *TaskCtx) {
						tc.Compute(300)
						count++
					}})
				}
				done++
			})
		}
		for done < 3 {
			h.Sleep(10_000)
		}
		h.WaitAll()
	})
	if count != 60 {
		t.Fatalf("tasks ran = %d, want 60", count)
	}
	if st := sys.Stats(); st.Completed != 60 {
		t.Fatalf("Completed = %d, want 60", st.Completed)
	}
}

func TestCheckAndCopies(t *testing.T) {
	sys := New(smallConfig())
	sys.Run(func(h *Host) {
		h.CopyToDevice(64 * 1024)
		id := h.Spawn(Task{Threads: 32, Kernel: func(tc *TaskCtx) { tc.Compute(2_000_000) }})
		if h.Check(id) {
			t.Error("Check true immediately for a 2ms task")
		}
		h.Wait(id)
		if !h.Check(id) {
			t.Error("Check false after Wait")
		}
		h.CopyFromDevice(64 * 1024)
	})
}

func TestSharedMemoryAndSyncThroughFacade(t *testing.T) {
	sys := New(smallConfig())
	var smLen int
	phase := 0
	bad := 0
	sys.Run(func(h *Host) {
		id := h.Spawn(Task{
			Threads: 128, SharedMem: 4096, Sync: true,
			Kernel: func(tc *TaskCtx) {
				smLen = len(tc.Shared())
				tc.Compute(float64(100 * (tc.WarpInBlock() + 1)))
				phase++
				tc.SyncBlock()
				if phase != 4 {
					bad++
				}
			},
		})
		h.Wait(id)
	})
	if smLen != 4096 {
		t.Fatalf("Shared len = %d, want 4096", smLen)
	}
	if bad != 0 {
		t.Fatalf("%d warps crossed SyncBlock early", bad)
	}
}

func TestStatsString(t *testing.T) {
	sys := New(smallConfig())
	sys.Run(func(h *Host) {
		h.Spawn(Task{Threads: 32, Kernel: func(tc *TaskCtx) { tc.Compute(100) }})
		h.WaitAll()
	})
	s := sys.Stats().String()
	for _, want := range []string{"tasks 1/1 done", "avg latency", "occupancy"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Stats.String() = %q, missing %q", s, want)
		}
	}
}

func TestNowAdvances(t *testing.T) {
	sys := New(smallConfig())
	sys.Run(func(h *Host) {
		t0 := h.Now()
		h.Sleep(12345)
		if h.Now()-t0 != 12345 {
			t.Errorf("Sleep advanced %v, want 12345", h.Now()-t0)
		}
	})
}

func TestCustomDeviceGeometry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GPU.NumSMMs = 1
	sys := New(cfg)
	if got := sys.Device.Cfg.NumSMMs; got != 1 {
		t.Fatalf("NumSMMs = %d", got)
	}
	// MasterKernel should own the whole 1-SMM device: 2 MTBs of 32 warps.
	var resident int
	sys.Run(func(h *Host) {
		h.Sleep(1)
		resident = sys.Device.Metrics().ResidentWarps
	})
	if resident != 64 {
		t.Fatalf("%d warps resident, want the whole SMM's 64", resident)
	}
	occ := gpu.TheoreticalOccupancy(sys.Device.Cfg, gpu.LaunchSpec{
		BlockThreads: 1024, SharedPerTB: 32 * 1024, RegsPerThread: 32,
	})
	if occ.Fraction != 1 {
		t.Fatalf("MasterKernel occupancy = %v", occ.Fraction)
	}
}

// TestRunsLeaveNoGoroutines: Run closes its engine, so after one warm-up run
// fills the coroutine pool, further New+Run cycles neither start nor strand
// a goroutine. (The count may drop: an earlier test's goroutines can still
// be exiting when it is first read.)
func TestRunsLeaveNoGoroutines(t *testing.T) {
	run := func() {
		sys := New(smallConfig())
		sys.Run(func(h *Host) {
			for i := 0; i < 8; i++ {
				h.Spawn(Task{Threads: 32, Kernel: func(tc *TaskCtx) { tc.Compute(100) }})
			}
			h.WaitAll()
		})
		if st := sys.Stats(); st.Completed != 8 {
			t.Fatalf("%d of 8 tasks completed", st.Completed)
		}
	}
	run()
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		run()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d after ten more runs, %d after the warm-up", after, before)
	}
}
