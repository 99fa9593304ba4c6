package core

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/pcie"
	"repro/internal/sim"
)

func faultSystem(t *testing.T) (*sim.Engine, *Runtime) {
	t.Helper()
	eng := sim.New()
	gcfg := gpu.TitanX()
	gcfg.NumSMMs = 1
	dev := gpu.NewDevice(eng, gcfg)
	bus := pcie.New(eng, pcie.Default())
	ctx := cuda.NewContext(eng, dev, bus, cuda.DefaultConfig())
	cfg := DefaultConfig()
	cfg.IsolateKernelPanics = true
	return eng, NewRuntime(ctx, cfg)
}

func TestFaultyKernelIsolated(t *testing.T) {
	eng, rt := faultSystem(t)
	var faults []TaskID
	var faultAt sim.Time
	rt.OnTaskFault = func(id TaskID, v any) {
		faults = append(faults, id)
		faultAt = eng.Now()
	}
	healthy := 0
	var badID TaskID
	runHost(t, eng, rt, func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			i := i
			id := rt.TaskSpawn(p, TaskSpec{
				Threads: 32, Blocks: 1,
				Kernel: func(tc *TaskCtx) {
					tc.Compute(200)
					if i == 7 {
						panic("injected kernel fault")
					}
					healthy++
				},
			})
			if i == 7 {
				badID = id
			}
		}
		rt.WaitAll(p)
	})
	if healthy != 19 {
		t.Fatalf("healthy kernels ran = %d, want 19", healthy)
	}
	st := rt.Stats()
	if st.Completed != 20 {
		t.Fatalf("Completed = %d; a faulty task must still retire its entry", st.Completed)
	}
	if st.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", st.Failed)
	}
	if len(faults) != 1 || faults[0] != badID {
		t.Fatalf("fault hook got %v, want [%d]", faults, badID)
	}
	// The instant the hook fires, recorded when every cost op blocked its
	// warp as it was called: the faulty kernel's Compute(200) is charged
	// before the fault is counted.
	if want := 17889.319999999996; math.Float64bits(faultAt) != math.Float64bits(want) {
		t.Fatalf("fault hook fired at %v, want %v", faultAt, want)
	}
}

func TestFaultsDoNotLeakResources(t *testing.T) {
	eng, rt := faultSystem(t)
	runHost(t, eng, rt, func(p *sim.Proc) {
		for i := 0; i < 30; i++ {
			rt.TaskSpawn(p, TaskSpec{
				Threads: 32, Blocks: 1, SharedMem: 4096,
				Kernel: func(tc *TaskCtx) {
					_ = tc.Shared()[0]
					panic("always faults")
				},
			})
		}
		rt.WaitAll(p)
	})
	if st := rt.Stats(); st.Failed != 30 || st.Completed != 30 {
		t.Fatalf("stats = %+v, want 30 failed and 30 retired", rt.Stats())
	}
	for col, m := range rt.mtbs {
		m.buddy.DrainPending()
		if m.buddy.Allocated() != 0 {
			t.Fatalf("MTB %d leaked %d bytes after faults", col, m.buddy.Allocated())
		}
		for id, used := range m.barInUse {
			if used {
				t.Fatalf("MTB %d leaked barrier %d", col, id)
			}
		}
	}
}

// TestCloseIsNotATaskFault: Engine.Close unwinding a warp parked inside a
// task kernel passes through the isolation recover; no fault is counted and
// the fault hook never fires. The warp parks on its task's barrier, which
// the task's other warp returns without reaching.
func TestCloseIsNotATaskFault(t *testing.T) {
	eng, rt := faultSystem(t)
	faults := 0
	rt.OnTaskFault = func(TaskID, any) { faults++ }
	unwound := false
	eng.Spawn("host", func(p *sim.Proc) {
		rt.TaskSpawn(p, TaskSpec{
			Threads: 64, Blocks: 1, Sync: true,
			Kernel: func(tc *TaskCtx) {
				if tc.WarpInBlock() == 1 {
					return
				}
				defer func() { unwound = true }()
				tc.SyncBlock() // parks until Close
			},
		})
		rt.WaitAll(p)
	})
	eng.RunUntil(1e6) // the scheduler warps poll until Shutdown, which never comes
	if got := eng.BlockedProcs(); len(got) == 0 {
		t.Fatal("no process parked; the kernel did not block")
	}
	eng.Close()
	if !unwound || eng.LiveProcs() != 0 {
		t.Fatalf("unwound = %v, LiveProcs = %d; want the kernel unwound and no live process", unwound, eng.LiveProcs())
	}
	if faults != 0 || rt.Stats().Failed != 0 {
		t.Fatalf("Close counted as a task fault: hook calls %d, Stats.Failed %d", faults, rt.Stats().Failed)
	}
}

// TestCloseMidTapeLeavesNoGoroutine cuts a Pagoda run while task warps are
// replaying their tapes (their bodies have run, their tasks have not
// finished) and closes the engine: every warp unwinds and returns its
// coroutine, so after a warm-up run fills the pool, further runs start no
// goroutine and leave none behind.
func TestCloseMidTapeLeavesNoGoroutine(t *testing.T) {
	run := func() {
		eng, rt := faultSystem(t)
		started, done := 0, 0
		rt.OnTaskDone = func(TaskID, sim.Time, sim.Time, sim.Time) { done++ }
		eng.Spawn("host", func(p *sim.Proc) {
			for i := 0; i < 8; i++ {
				rt.TaskSpawn(p, TaskSpec{
					Threads: 128, Blocks: 1, Sync: true,
					Kernel: func(tc *TaskCtx) {
						if tc.WarpInBlock() == 0 {
							started++
						}
						for j := 0; j < 40; j++ {
							tc.Compute(50)
							tc.GlobalRead(512)
						}
						tc.SyncBlock()
						tc.SharedWrite(256)
					},
				})
			}
			rt.WaitAll(p)
		})
		eng.RunUntil(20000)
		if started <= done {
			t.Fatalf("%d task bodies started and %d tasks done at the cut; the check needs warps mid-tape", started, done)
		}
		eng.Close()
		if n := eng.LiveProcs(); n != 0 {
			t.Fatalf("%d procs live after Close", n)
		}
	}
	run()
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		run()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d after five closed runs, %d after the warm-up", after, before)
	}
}
