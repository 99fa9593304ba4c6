package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestIdleExecutorsStartParked: the MasterKernel is a stepped launch, so
// an executor warp's start runs on the event loop and parks it on its
// WarpTable slot without a coroutine. An idle runtime holds one coroutine
// per MTB, its scheduler warp, plus its spawn stream's worker, and
// Shutdown ends the idle executors on the event loop too.
func TestIdleExecutorsStartParked(t *testing.T) {
	eng, rt := testSystem(t, 2)
	t.Cleanup(eng.Close)
	eng.Run()
	executors := int64(len(rt.mtbs) * rt.Cfg.ExecutorWarpsPerMTB())
	if got, want := eng.Stats().PeakRunning, int64(len(rt.mtbs)+1); got != want {
		t.Fatalf("PeakRunning = %d after launch, want one scheduler warp per MTB and the spawn stream (%d)", got, want)
	}
	if got := eng.Stats().Steps; got < executors {
		t.Fatalf("Steps = %d after launch, want at least one per executor warp (%d)", got, executors)
	}
	if got, want := len(eng.BlockedProcs()), len(rt.mtbs)*rt.Cfg.WarpsPerMTB+1; got != want {
		t.Fatalf("BlockedProcs = %d, want every MasterKernel warp and the spawn stream (%d)", got, want)
	}
	for col, m := range rt.mtbs {
		for i, s := range m.slots {
			if s.sig.Waiting() != 1 {
				t.Fatalf("MTB %d slot %d: %d waiters, want its executor warp", col, i, s.sig.Waiting())
			}
		}
	}

	before := eng.Stats()
	eng.Spawn("host", func(p *sim.Proc) { rt.Shutdown(p) })
	eng.Run()
	if rt.kernel.EndTime == 0 || eng.LiveProcs() != 1 {
		t.Fatalf("after Shutdown: MasterKernel finished = %v, LiveProcs = %d, want true and the spawn stream",
			rt.kernel.EndTime > 0, eng.LiveProcs())
	}
	after := eng.Stats()
	if steps := after.Steps - before.Steps; steps < executors {
		t.Fatalf("Shutdown took %d steps, want at least one per executor warp (%d)", steps, executors)
	}
	if after.PeakRunning != int64(len(rt.mtbs)+2) {
		t.Fatalf("PeakRunning = %d after Shutdown, want the schedulers, the spawn stream and the host (%d)", after.PeakRunning, len(rt.mtbs)+2)
	}
}

// TestShutdownTakesNoExecutorHandoff: after a run in which executor warps
// ran tasks, Shutdown wakes every executor, and each sees the flag on the
// event loop and ends without taking a coroutine. So Shutdown takes no
// more handoffs than it does on a runtime that never ran a task: those of
// the host and of the scheduler warps, each blocked inside its loop.
func TestShutdownTakesNoExecutorHandoff(t *testing.T) {
	shutdownHandoffs := func(tasks int) int64 {
		eng, rt := testSystem(t, 2)
		t.Cleanup(eng.Close)
		var before sim.Stats
		runHost(t, eng, rt, func(p *sim.Proc) {
			for i := 0; i < tasks; i++ {
				rt.TaskSpawn(p, TaskSpec{
					Threads: 64, Blocks: 2,
					Kernel: func(tc *TaskCtx) { tc.Compute(500) },
				})
			}
			rt.WaitAll(p)
			before = eng.Stats()
		})
		if s := rt.Stats(); s.Completed != tasks {
			t.Fatalf("completed %d tasks, want %d", s.Completed, tasks)
		}
		return eng.Stats().Handoffs - before.Handoffs
	}
	idle := shutdownHandoffs(0)
	if busy := shutdownHandoffs(256); busy > idle {
		t.Fatalf("Shutdown took %d handoffs after 256 tasks, %d on an idle runtime: executor warps took a coroutine to end", busy, idle)
	}
}

// TestArenasStayNilWithoutSharedMemory: tasks that request no shared memory
// never allocate an MTB arena.
func TestArenasStayNilWithoutSharedMemory(t *testing.T) {
	eng, rt := testSystem(t, 2)
	t.Cleanup(eng.Close)
	runHost(t, eng, rt, func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			rt.TaskSpawn(p, TaskSpec{
				Threads: 128, Blocks: 2, Sync: true,
				Kernel: func(tc *TaskCtx) {
					tc.Compute(200)
					tc.SyncBlock()
				},
			})
		}
		rt.WaitAll(p)
	})
	if s := rt.Stats(); s.Completed != 64 {
		t.Fatalf("completed %d tasks, want 64", s.Completed)
	}
	for col, m := range rt.mtbs {
		if m.arena != nil {
			t.Fatalf("MTB %d allocated a %d-byte arena with no shared-memory task", col, len(m.arena))
		}
	}
}

// TestArenaAllocatedOnFirstUse: verified DCT tasks computing in Pagoda
// shared memory produce correct results, and only the MTBs that ran one
// hold an arena afterwards.
func TestArenaAllocatedOnFirstUse(t *testing.T) {
	eng, rt := testSystem(t, 2)
	t.Cleanup(eng.Close)
	dct, err := workloads.ByName("DCT")
	if err != nil {
		t.Fatal(err)
	}
	tasks := dct.Make(workloads.Options{Tasks: 2, Verify: true, Seed: 3, InputSize: 64, UseShared: true})
	used := make([]bool, len(rt.mtbs))
	runHost(t, eng, rt, func(p *sim.Proc) {
		for i := range tasks {
			td := &tasks[i]
			if td.SharedMem == 0 {
				t.Fatal("DCT with UseShared requested no shared memory")
			}
			id := rt.TaskSpawn(p, TaskSpec{
				Threads: td.Threads, Blocks: td.Blocks, SharedMem: td.SharedMem,
				Sync: td.Sync, ArgBytes: td.ArgBytes,
				Kernel: func(tc *TaskCtx) { td.Kernel(tc) },
			})
			// The MTB that owns the task's TaskTable column runs it.
			used[slotForTaskID(id, rt.Cfg.Rows, rt.totalEntries).col] = true
		}
		rt.WaitAll(p)
	})
	for i := range tasks {
		if err := tasks[i].Check(); err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
	}
	idle := 0
	for col, m := range rt.mtbs {
		if got := m.arena != nil; got != used[col] {
			t.Fatalf("MTB %d: arena allocated = %v, ran a shared-memory task = %v", col, got, used[col])
		}
		if m.arena == nil {
			idle++
		} else if len(m.arena) != rt.Cfg.SharedPerMTB {
			t.Fatalf("MTB %d arena is %d bytes, want %d", col, len(m.arena), rt.Cfg.SharedPerMTB)
		}
	}
	if idle == 0 {
		t.Fatal("every MTB ran a task; the test needs an idle one")
	}
}
