package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestIdleExecutorsStartParked: launching the MasterKernel starts only the
// scheduler warps. Every executor warp sits parked on its WarpTable slot
// without a coroutine until the scheduler fills the slot, so an idle runtime
// holds one coroutine per MTB, plus its spawn stream's worker.
func TestIdleExecutorsStartParked(t *testing.T) {
	eng, rt := testSystem(t, 2)
	t.Cleanup(eng.Close)
	eng.Run()
	if got, want := eng.Stats().PeakRunning, int64(rt.NumMTBs()+1); got != want {
		t.Fatalf("PeakRunning = %d after launch, want one scheduler warp per MTB and the spawn stream (%d)", got, want)
	}
	if got, want := len(eng.BlockedProcs()), rt.NumMTBs()*rt.Cfg.WarpsPerMTB+1; got != want {
		t.Fatalf("BlockedProcs = %d, want every MasterKernel warp and the spawn stream (%d)", got, want)
	}
	for _, m := range rt.mtbs {
		for i, s := range m.slots {
			if s.sig.Waiting() != 1 {
				t.Fatalf("MTB %d slot %d: %d waiters, want its executor warp", m.index, i, s.sig.Waiting())
			}
		}
	}

	// Shutdown retires the executors, none of which ran a task, without
	// starting them: no resume of theirs fires.
	before := eng.Stats()
	eng.Spawn("host", func(p *sim.Proc) { rt.Shutdown(p) })
	eng.Run()
	if !rt.MasterKernel().Finished() || eng.LiveProcs() != 1 {
		t.Fatalf("after Shutdown: MasterKernel finished = %v, LiveProcs = %d, want true and the spawn stream",
			rt.MasterKernel().Finished(), eng.LiveProcs())
	}
	after := eng.Stats()
	if handoffs, executors := after.Handoffs-before.Handoffs, int64(rt.NumMTBs()*rt.Cfg.ExecutorWarpsPerMTB()); handoffs >= executors {
		t.Fatalf("Shutdown took %d handoffs, want fewer than the %d executor warps", handoffs, executors)
	}
	if after.PeakRunning != int64(rt.NumMTBs()+2) {
		t.Fatalf("PeakRunning = %d after Shutdown, want the schedulers, the spawn stream and the host (%d)", after.PeakRunning, rt.NumMTBs()+2)
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
	for _, m := range rt.mtbs {
		if m.arena != nil {
			t.Fatalf("MTB %d allocated a %d-byte arena with no shared-memory task", m.index, len(m.arena))
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
	used := make([]bool, rt.NumMTBs())
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
	for _, m := range rt.mtbs {
		if got := m.arena != nil; got != used[m.index] {
			t.Fatalf("MTB %d: arena allocated = %v, ran a shared-memory task = %v", m.index, got, used[m.index])
		}
		if m.arena == nil {
			idle++
		} else if len(m.arena) != rt.Cfg.SharedPerMTB {
			t.Fatalf("MTB %d arena is %d bytes, want %d", m.index, len(m.arena), rt.Cfg.SharedPerMTB)
		}
	}
	if idle == 0 {
		t.Fatal("every MTB ran a task; the test needs an idle one")
	}
}
