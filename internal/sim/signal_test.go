package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSignalOrderMatchesReferenceQueue drives a Signal with a random mix of
// Pulses and Broadcasts against a reference queue of waiters. Woken procs
// re-wait after a per-proc pause, for some none at all, so they rejoin the
// Signal while others woken by the same Broadcast have yet to resume (the
// Barrier pattern), and Pulse's head advance and compaction both run. The
// order in which procs resume must be the order the reference queue pops
// them.
func TestSignalOrderMatchesReferenceQueue(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		var sig Signal
		var queue, want, got []int
		const procs = 7
		for id := 0; id < procs; id++ {
			pause := id % 3 // 0: re-wait at once; 1: Sleep(0); 2: Sleep(1)
			e.Spawn("w", func(p *Proc) {
				for {
					queue = append(queue, id)
					sig.Wait(p)
					got = append(got, id)
					if pause > 0 {
						p.Sleep(Time(pause - 1))
					}
				}
			})
		}
		e.Spawn("waker", func(p *Proc) {
			p.Sleep(1)
			for step := 0; step < 400; step++ {
				if sig.Waiting() != len(queue) {
					t.Errorf("seed %d step %d: Waiting() = %d, reference has %d", seed, step, sig.Waiting(), len(queue))
					return
				}
				if rng.Intn(4) == 0 {
					want = append(want, queue...)
					queue = queue[:0]
					sig.Broadcast()
				} else {
					had := len(queue) > 0
					if had {
						want = append(want, queue[0])
						queue = queue[1:]
					}
					if sig.Pulse() != had {
						t.Errorf("seed %d step %d: Pulse() = %v with %d waiters", seed, step, !had, len(queue))
						return
					}
				}
				p.Sleep(Time(rng.Intn(3)))
			}
			p.Sleep(2) // let the last woken procs resume
		})
		e.Run()
		e.Close()
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: wake order\n got %v\nwant %v", seed, got, want)
		}
	}
}

// waitCycle parks n procs that loop forever on sig, and returns an engine
// in which they are all waiting.
func waitCycle(t *testing.T, n int, sig *Signal) *Engine {
	t.Helper()
	e := New()
	for i := 0; i < n; i++ {
		e.Spawn("w", func(p *Proc) {
			for {
				sig.Wait(p)
			}
		})
	}
	e.Run()
	t.Cleanup(e.Close)
	return e
}

// TestSignalSteadyStateAllocatesNothing pins the reuse of a Signal's waiter
// storage: once the queue has reached its peak length, a Wait→Broadcast
// round and a Wait→Pulse round allocate nothing.
func TestSignalSteadyStateAllocatesNothing(t *testing.T) {
	var bsig, psig Signal
	be := waitCycle(t, 5, &bsig)
	if a := testing.AllocsPerRun(100, func() {
		bsig.Broadcast()
		be.Run()
	}); a != 0 {
		t.Errorf("Wait→Broadcast round: %v allocs, want 0", a)
	}
	pe := waitCycle(t, 5, &psig)
	if a := testing.AllocsPerRun(100, func() {
		psig.Pulse()
		pe.Run()
	}); a != 0 {
		t.Errorf("Wait→Pulse round: %v allocs, want 0", a)
	}
	if bsig.Waiting() != 5 || psig.Waiting() != 5 {
		t.Fatalf("Waiting() = %d, %d after the rounds, want 5, 5", bsig.Waiting(), psig.Waiting())
	}
}

// TestSignalGrowPreallocates: after Grow(n), n waiters park in the storage
// Grow reserved (the first of them inline).
func TestSignalGrowPreallocates(t *testing.T) {
	e := New()
	t.Cleanup(e.Close)
	var sig Signal
	sig.Grow(8)
	reserved := cap(sig.more.items)
	for i := 0; i < 8; i++ {
		e.Spawn("w", func(p *Proc) { sig.Wait(p) })
	}
	e.Run()
	if sig.Waiting() != 8 || reserved < 7 || cap(sig.more.items) != reserved {
		t.Errorf("%d waiting, waiter storage %d -> %d slots, want 8 waiting in an unchanged 7+",
			sig.Waiting(), reserved, cap(sig.more.items))
	}
}
