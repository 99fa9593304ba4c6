package core

import (
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
	rt.OnTaskFault = func(id TaskID, v any) { faults = append(faults, id) }
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
	for _, m := range rt.mtbs {
		m.buddy.DrainPending()
		if m.buddy.Allocated() != 0 {
			t.Fatalf("MTB %d leaked %d bytes after faults", m.index, m.buddy.Allocated())
		}
		for id, used := range m.barInUse {
			if used {
				t.Fatalf("MTB %d leaked barrier %d", m.index, id)
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
