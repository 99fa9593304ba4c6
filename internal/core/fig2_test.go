package core

import (
	"testing"

	"repro/internal/sim"
)

// TestFig2bStateSequence reproduces the paper's Fig. 2b execution example:
// task TA is spawned first (CPU sets ready=-1), then TB (CPU sets TB.ready =
// taskID(TA)); the scheduler warp of TB's column promotes TA to (1, 1) and
// advances TB to (-1, 0); TA executes and its entry returns to (0, 0).
func TestFig2bStateSequence(t *testing.T) {
	eng, rt := testSystem(t, 1)

	var taID, tbID TaskID
	kernelRan := map[string]bool{}
	eng.Spawn("host", func(p *sim.Proc) {
		taID = rt.TaskSpawn(p, TaskSpec{
			Threads: 32, Blocks: 1,
			Kernel: func(tc *TaskCtx) { tc.Compute(50_000); kernelRan["TA"] = true },
		})
		tbID = rt.TaskSpawn(p, TaskSpec{
			Threads: 32, Blocks: 1,
			Kernel: func(tc *TaskCtx) { tc.Compute(50_000); kernelRan["TB"] = true },
		})
		rt.WaitAll(p)
		rt.Shutdown(p)
	})

	// Step the simulation in small increments, sampling the device-side
	// entry states (the host proc assigns taID/tbID on its first steps).
	var sawTBPointer, sawTAPromoted, sawTBCopied bool
	for eng.Pending() > 0 {
		eng.RunUntil(eng.Now() + 100)
		if tbID < firstTaskID {
			continue
		}
		taRef := slotForTaskID(taID, rt.Cfg.Rows, rt.totalEntries)
		tbRef := slotForTaskID(tbID, rt.Cfg.Rows, rt.totalEntries)
		ta := rt.mtbs[taRef.col].entries[taRef.row]
		tb := rt.mtbs[tbRef.col].entries[tbRef.row]
		if tb.id == tbID && tb.ready == int64(taID) {
			sawTBPointer = true // TB(TA, 0) on the device
		}
		if ta.id == taID && ta.ready == readyScheduling && ta.sched {
			sawTAPromoted = true // TA(1, 1)
		}
		if sawTBPointer && tb.id == tbID && tb.ready == readyCopied {
			sawTBCopied = true // TB advanced to (-1, 0)
		}
		if eng.Now() > 5e8 {
			t.Fatal("run did not converge")
		}
		if rt.deviceCompleted == 2 && rt.kernel.EndTime > 0 {
			break
		}
	}
	eng.Run()

	if taID >= tbID {
		t.Fatalf("taskIDs not increasing: TA=%d TB=%d", taID, tbID)
	}
	if !sawTBPointer {
		t.Error("never observed TB holding the pipelining pointer to TA")
	}
	if !sawTAPromoted {
		t.Error("never observed TA in the (1,1) scheduling state")
	}
	if !sawTBCopied {
		t.Error("never observed TB advanced to (-1,0) after promotion")
	}
	if len(kernelRan) != 2 {
		t.Fatalf("kernels ran: %v, want TA and TB", kernelRan)
	}
	// Final state: both entries free, Fig. 2b's "TA(0,0)".
	taRef := slotForTaskID(taID, rt.Cfg.Rows, rt.totalEntries)
	tbRef := slotForTaskID(tbID, rt.Cfg.Rows, rt.totalEntries)
	ta := rt.mtbs[taRef.col].entries[taRef.row]
	tb := rt.mtbs[tbRef.col].entries[tbRef.row]
	if ta.ready != readyFree || tb.ready != readyFree {
		t.Fatalf("entries not freed: TA.ready=%d TB.ready=%d", ta.ready, tb.ready)
	}
}

// TestLastTaskNeedsFlush verifies the §4.2.2 tail rule: with no successor
// spawn, the last task is only scheduled once the CPU flushes it ("if the
// CPU spawner thread observes no new tasks come in, it copies back the
// status of the last task ... and sets it to (1,1)").
func TestLastTaskNeedsFlush(t *testing.T) {
	eng, rt := testSystem(t, 1)
	ran := false
	eng.Spawn("host", func(p *sim.Proc) {
		rt.TaskSpawn(p, TaskSpec{
			Threads: 32, Blocks: 1,
			Kernel: func(tc *TaskCtx) { tc.Compute(100); ran = true },
		})
		// Without Wait/WaitAll (and hence without a flush), idle for 2 ms.
		p.Sleep(2_000_000)
		if ran {
			t.Error("final task ran without a successor or a flush")
		}
		rt.Wait(p, rt.lastSpawned) // the flush happens here
		if !ran {
			t.Error("task did not run after the flush")
		}
		rt.Shutdown(p)
	})
	eng.Run()
}
