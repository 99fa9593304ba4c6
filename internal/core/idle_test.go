package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestExecutorWarpsLiveOnlyWhileBusy: the MasterKernel is an OnDemand
// launch, so an executor warp exists only while its WarpTable slot holds a
// task. The launch queues one start per MTB, its scheduler warp's, and
// none for an executor; an idle runtime holds those warps and the spawn
// stream's proc; in a run, the executor warps alive at each sampled
// instant are exactly the busy slots, so the peaks match; and after
// Shutdown only the spawn stream is left.
func TestExecutorWarpsLiveOnlyWhileBusy(t *testing.T) {
	eng, rt := testSystem(t, 2)
	t.Cleanup(eng.Close)
	base := len(rt.mtbs) + 1 // the scheduler warps and the spawn stream
	if got := eng.Pending(); got != base {
		t.Fatalf("launch queued %d events, want a start per scheduler warp and the spawn stream's (%d)", got, base)
	}
	eng.Run()
	if got := eng.LiveProcs(); got != base {
		t.Fatalf("an idle runtime holds %d procs, want its %d scheduler warps and the spawn stream", got, len(rt.mtbs))
	}

	// Sample every microsecond while no spawn copy is in flight: then the
	// live procs are the base, the host and the executor warps.
	const tasks = 256
	var samples, peakWarps, peakBusy, mismatches int
	var sample func()
	sample = func() {
		copying, busy := false, 0
		for _, he := range rt.host {
			copying = copying || he.h2dInFlight
		}
		for i := range rt.mtbs {
			for _, s := range rt.mtbs[i].slots {
				if s.exec {
					busy++
				}
			}
		}
		if !copying {
			warps := eng.LiveProcs() - base - 1
			if warps != busy {
				mismatches++
			}
			samples++
			peakWarps, peakBusy = max(peakWarps, warps), max(peakBusy, busy)
		}
		if rt.Stats().Completed < tasks {
			eng.Schedule(1000, sample)
		}
	}
	eng.Schedule(0, sample)
	runHost(t, eng, rt, func(p *sim.Proc) {
		for i := 0; i < tasks; i++ {
			rt.TaskSpawn(p, TaskSpec{
				Threads: 96, Blocks: 1 + i%3,
				Kernel: func(tc *TaskCtx) { tc.Compute(float64(20000 + 100*i)) },
			})
		}
		rt.WaitAll(p)
	})
	if s := rt.Stats(); s.Completed != tasks {
		t.Fatalf("completed %d tasks, want %d", s.Completed, tasks)
	}
	if mismatches > 0 || peakWarps != peakBusy {
		t.Fatalf("executor warps differ from busy slots at %d of %d samples; peaks %d and %d",
			mismatches, samples, peakWarps, peakBusy)
	}
	if peakBusy <= rt.Cfg.ExecutorWarpsPerMTB() {
		t.Fatalf("peak busy slots %d over %d samples: the run never kept more than one MTB's executors busy", peakBusy, samples)
	}
	if got := eng.LiveProcs(); got != 1 {
		t.Fatalf("after Shutdown %d procs are live, want the spawn stream's alone", got)
	}
}

// TestShutdownTakesNoExecutorHandoff: an executor warp ends with its task,
// so after a run Shutdown finds no executor to end, and takes no more
// handoffs than it does on a runtime that never ran a task: those of the
// host and of the scheduler warps, each blocked inside its loop.
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

// TestNewRuntimeRejectsBadArena: an MTB builds its buddy allocator on its
// first shared-memory task, so NewRuntime itself refuses an arena the
// allocator would refuse, before any task runs.
func TestNewRuntimeRejectsBadArena(t *testing.T) {
	eng, rt := testSystem(t, 1)
	t.Cleanup(eng.Close)
	cfg := DefaultConfig()
	cfg.SharedPerMTB = 3000
	defer func() {
		if r := recover(); r != "core: buddy arena and min block must be powers of two, arena >= minBlock" {
			t.Fatalf("panic = %v, want the buddy allocator's shape check", r)
		}
	}()
	NewRuntime(rt.Ctx, cfg)
}
