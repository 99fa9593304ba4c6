package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestTaskIDSlotRoundTrip checks the TaskID <-> slot encoding over random
// generations and slots.
func TestTaskIDSlotRoundTrip(t *testing.T) {
	const rows, cols = 32, 48
	total := rows * cols
	check := func(gen uint16, slot uint16) bool {
		g := int(slot) % total
		id := taskIDFor(int64(gen), g, total)
		if id < firstTaskID {
			return false
		}
		ref := slotForTaskID(id, rows, total)
		return ref.globalIndex(rows) == g
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestReadyFieldStatesDistinct ensures the four protocol states cannot
// collide: TaskIDs are always > 1.
func TestReadyFieldStatesDistinct(t *testing.T) {
	states := map[int64]bool{readyFree: true, readyCopied: true, readyScheduling: true}
	if len(states) != 3 {
		t.Fatal("protocol states collide")
	}
	for gen := int64(0); gen < 4; gen++ {
		for g := 0; g < 10; g++ {
			id := int64(taskIDFor(gen, g, 1536))
			if states[id] {
				t.Fatalf("TaskID %d collides with a protocol state", id)
			}
		}
	}
}

// TestProtocolInvariantUnderRandomLoad drives the full runtime with random
// task shapes and checks, at every host observation point, the Fig. 2a
// contract: the CPU only touches entries whose CPU-side ready field is 0,
// the GPU only entries with non-zero ready — which manifests as: the host
// never hands out an entry whose device side still holds an unfinished task.
func TestProtocolInvariantUnderRandomLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	eng, rt := testSystem(t, 1)

	violations := 0
	runHost(t, eng, rt, func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			spec := TaskSpec{
				Threads: 32 * (1 + rng.Intn(8)),
				Blocks:  1,
				Sync:    rng.Intn(2) == 0,
				Kernel: func(tc *TaskCtx) {
					tc.Compute(float64(100 + rng.Intn(2000)))
					if rng.Intn(3) == 0 {
						tc.GlobalRead(512)
					}
				},
			}
			if rng.Intn(4) == 0 {
				spec.SharedMem = 512 << rng.Intn(4)
			}
			ref := rt.findFreeEntry(p)
			// Invariant: the entry the CPU chose is not running on the GPU.
			de, he := rt.slot(ref).dev, rt.slot(ref).host
			if he.id != 0 && de.id == he.id && de.ready != readyFree {
				violations++
			}
			// findFreeEntry advanced the cursor; rewind so TaskSpawn picks
			// the same entry.
			rt.rrCursor = (ref.row*len(rt.mtbs) + ref.col)
			rt.TaskSpawn(p, spec)
			if rng.Intn(16) == 0 {
				rt.WaitAll(p)
			}
		}
		rt.WaitAll(p)
	})
	if violations != 0 {
		t.Fatalf("%d protocol violations: CPU reused an entry the GPU still owned", violations)
	}
	if got := rt.Stats(); got.Completed != 300 {
		t.Fatalf("Completed = %d, want 300", got.Completed)
	}
}

// TestPollCompletionsFiresHook exercises the OnHostObservedDone path.
func TestPollCompletionsFiresHook(t *testing.T) {
	eng, rt := testSystem(t, 1)
	var observed []TaskID
	rt.OnHostObservedDone = func(id TaskID) { observed = append(observed, id) }
	var ids []TaskID
	runHost(t, eng, rt, func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			ids = append(ids, rt.TaskSpawn(p, TaskSpec{
				Threads: 32, Blocks: 1,
				Kernel: func(tc *TaskCtx) { tc.Compute(500) },
			}))
		}
		for len(observed) < 10 {
			p.Sleep(20_000)
			rt.PollCompletions(p)
		}
	})
	seen := map[TaskID]bool{}
	for _, id := range observed {
		if seen[id] {
			t.Fatalf("task %d observed done twice", id)
		}
		seen[id] = true
	}
	for _, id := range ids {
		if !seen[id] {
			t.Fatalf("task %d never observed", id)
		}
	}
}

// TestStatsSchedDelayOrdering checks metric sanity: sched delay <= latency.
func TestStatsSchedDelayOrdering(t *testing.T) {
	eng, rt := testSystem(t, 1)
	var delaySum sim.Time
	rt.OnTaskDone = func(_ TaskID, spawn, sched, _ sim.Time) { delaySum += sched - spawn }
	runHost(t, eng, rt, func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			rt.TaskSpawn(p, TaskSpec{Threads: 64, Blocks: 1,
				Kernel: func(tc *TaskCtx) { tc.Compute(1000) }})
		}
		rt.WaitAll(p)
	})
	s := rt.Stats()
	if avg := delaySum / 50; avg <= 0 || avg >= s.AvgLatency {
		t.Fatalf("mean sched delay = %v, AvgLatency = %v; want 0 < delay < latency",
			avg, s.AvgLatency)
	}
}

// TestTraceRecordsTasks verifies runtime tracing integration.
func TestTraceRecordsTasks(t *testing.T) {
	eng, rt := testSystem(t, 1)
	tr := trace.New()
	rt.Trace = tr
	runHost(t, eng, rt, func(p *sim.Proc) {
		for i := 0; i < 7; i++ {
			rt.TaskSpawn(p, TaskSpec{Threads: 32, Blocks: 1,
				Kernel: func(tc *TaskCtx) { tc.Compute(400) }})
		}
		rt.WaitAll(p)
	})
	if tr.Len() != 7 {
		t.Fatalf("trace spans = %d, want 7", tr.Len())
	}
}
