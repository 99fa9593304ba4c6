package sim

import (
	"errors"
	"runtime"
	"sync"
	"testing"
)

// TestCloseUnwindsParkedProcs parks one process in Block, one in
// Signal.Wait and one in a sleep past the deadline, and leaves one never
// started: Close must unwind the started ones through their deferred calls,
// in spawn order, and retire all four.
func TestCloseUnwindsParkedProcs(t *testing.T) {
	e := New()
	var sig Signal
	var unwound []string
	deferred := func(name string) { unwound = append(unwound, name) }
	e.Spawn("blocked", func(p *Proc) {
		defer deferred("blocked")
		block(p)
		t.Error("blocked proc resumed")
	})
	e.Spawn("waiter", func(p *Proc) {
		defer deferred("waiter")
		sig.Wait(p)
		t.Error("waiting proc resumed")
	})
	e.Spawn("sleeper", func(p *Proc) {
		defer deferred("sleeper")
		p.Sleep(100)
		t.Error("sleeper resumed")
	})
	e.RunUntil(50)
	e.Spawn("unstarted", func(p *Proc) { t.Error("unstarted proc ran") })
	if got := e.BlockedProcs(); len(got) != 2 || got[0] != "blocked" || got[1] != "waiter" {
		t.Fatalf("BlockedProcs before Close = %v, want [blocked waiter]", got)
	}
	if e.LiveProcs() != 4 {
		t.Fatalf("LiveProcs before Close = %d, want 4", e.LiveProcs())
	}

	e.Close()
	if want := []string{"blocked", "waiter", "sleeper"}; len(unwound) != 3 ||
		unwound[0] != want[0] || unwound[1] != want[1] || unwound[2] != want[2] {
		t.Fatalf("unwound = %v, want %v", unwound, want)
	}
	if e.LiveProcs() != 0 {
		t.Errorf("LiveProcs after Close = %d, want 0", e.LiveProcs())
	}
	if got := e.BlockedProcs(); len(got) != 0 {
		t.Errorf("BlockedProcs after Close = %v, want empty", got)
	}
	e.Close() // no live process left: a no-op
	if len(unwound) != 3 || e.LiveProcs() != 0 {
		t.Errorf("second Close changed state: unwound %v, LiveProcs %d", unwound, e.LiveProcs())
	}
}

// TestCloseUnwindsThroughRecover checks the contract for recover sites
// inside bodies: they see a value Unwinding accepts, and re-panicking it
// lets the unwind finish; a deferred call that blocks again is unwound too.
func TestCloseUnwindsThroughRecover(t *testing.T) {
	e := New()
	var sawUnwind, blockedAgain bool
	e.Spawn("guarded", func(p *Proc) {
		defer func() {
			if r := recover(); r != nil {
				sawUnwind = Unwinding(r)
				panic(r)
			}
		}()
		defer func() {
			blockedAgain = true
			p.Sleep(1) // must not run the simulation while Close unwinds
			t.Error("deferred sleep returned during Close")
		}()
		block(p)
	})
	e.Run()
	e.Close()
	if !sawUnwind || !blockedAgain {
		t.Fatalf("sawUnwind = %v, blockedAgain = %v, want both", sawUnwind, blockedAgain)
	}
	if e.LiveProcs() != 0 || e.Pending() != 1 {
		t.Fatalf("LiveProcs = %d, Pending = %d; want 0 and the one orphaned sleep", e.LiveProcs(), e.Pending())
	}
	if Unwinding(errors.New("boom")) || Unwinding(nil) {
		t.Fatal("Unwinding accepted a foreign value")
	}
}

// TestBodyPanicSurfacesFromRun: a panicking body unwinds to Engine.Run on
// the caller's goroutine with its original value, and the engine can still
// be closed afterwards.
func TestBodyPanicSurfacesFromRun(t *testing.T) {
	e := New()
	boom := errors.New("boom")
	e.Spawn("parked", func(p *Proc) { block(p) })
	e.Spawn("faulty", func(p *Proc) {
		p.Sleep(3)
		panic(boom)
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		e.Run()
		return nil
	}()
	if got != boom {
		t.Fatalf("Run panicked with %v, want %v", got, boom)
	}
	if e.Now() != 3 || e.LiveProcs() != 1 {
		t.Fatalf("Now = %v, LiveProcs = %d after the panic; want 3 and the parked proc", e.Now(), e.LiveProcs())
	}
	e.Close()
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs after Close = %d, want 0", e.LiveProcs())
	}
}

// TestDeadlockThenClose: a deadlocked run still names its stuck processes,
// in spawn order, and Close then frees them.
func TestDeadlockThenClose(t *testing.T) {
	e := New()
	var a, b Signal
	e.Spawn("left", func(p *Proc) {
		a.Wait(p)
		b.Broadcast()
	})
	e.Spawn("right", func(p *Proc) {
		b.Wait(p)
		a.Broadcast()
	})
	e.Run()
	if got := e.BlockedProcs(); len(got) != 2 || got[0] != "left" || got[1] != "right" {
		t.Fatalf("BlockedProcs = %v, want [left right]", got)
	}
	e.Close()
	if got := e.BlockedProcs(); len(got) != 0 || e.LiveProcs() != 0 {
		t.Fatalf("after Close: BlockedProcs = %v, LiveProcs = %d", got, e.LiveProcs())
	}
}

// parkedRun runs one engine whose processes all end parked, then closes it.
// Its sleeps of 1 and 2 take delay lanes, whose arrays Close recycles.
func parkedRun(n int) {
	e := New()
	e.RegisterDelay(1)
	e.RegisterDelay(2)
	var sig Signal
	for i := 0; i < n; i++ {
		e.Spawn("w", func(p *Proc) {
			p.Sleep(Time(i))
			sig.Wait(p)
		})
	}
	e.Run()
	e.Close()
}

// TestCloseReturnsCoroutines: once the worker pool is warm, further closed
// runs start no goroutine and leave none behind. (The count may drop: an
// earlier test's goroutines can still be exiting when it is first read.)
func TestCloseReturnsCoroutines(t *testing.T) {
	parkedRun(64)
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		parkedRun(64)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d after five closed runs, %d before", after, before)
	}
}

// TestEnginesShareWorkerPool runs closed engines on several goroutines at
// once, as the harness's parallel cells do, sharing the worker pool and the
// lane arrays; run it under -race.
func TestEnginesShareWorkerPool(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				parkedRun(16)
			}
		}()
	}
	wg.Wait()
}

// TestCloseRecyclesLaneArrays: Close gives back the arrays of its empty
// delay lanes, last lane first, so the next engine to register the same
// delays in the same order gets the array each lane grew.
func TestCloseRecyclesLaneArrays(t *testing.T) {
	e := New()
	e.RegisterDelay(3)
	e.RegisterDelay(5)
	for i := 0; i < 40; i++ {
		e.Spawn("sleeper", func(p *Proc) {
			p.Sleep(3)
			p.Sleep(5)
		})
	}
	e.Run()
	first, second := &e.dlanes[0].items[:1][0], &e.dlanes[1].items[:1][0]
	if c := cap(e.dlanes[0].items); c < 40 {
		t.Fatalf("lane 3 grew to %d, want room for 40", c)
	}
	e.Close()
	if cap(e.dlanes[0].items) != 0 {
		t.Fatal("a closed engine kept its lane array")
	}
	next := New()
	next.RegisterDelay(3)
	next.RegisterDelay(5)
	if &next.dlanes[0].items[:1][0] != first || &next.dlanes[1].items[:1][0] != second {
		t.Fatal("the next engine's lanes did not get the closed engine's arrays")
	}
}

// TestStatsCounts pins the counters of a small run: one start handoff per
// process, then every Sleep of a lone process resumes itself; PeakRunning
// counts the procs holding a coroutine at once. A start is scheduled for
// the current instant, so it fires from the lane; later wakes go through
// the heap, or a delay lane when their delay is registered.
func TestStatsCounts(t *testing.T) {
	e := New()
	e.Spawn("solo", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(1)
		}
	})
	e.Schedule(10, func() {})
	e.Run()
	if got, want := e.Stats(), (Stats{Events: 5, Handoffs: 1, SelfResumes: 3, PeakRunning: 1,
		LaneEvents: 1, HeapPushes: 4, PeakPending: 2}); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}

	// The same run with its sleep registered as a fixed delay: the three
	// wakes go to the delay lane, so HeapPushes + DelayPushes is the
	// HeapPushes above, and every other count is unchanged.
	e = New()
	e.RegisterDelay(1)
	e.Spawn("solo", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(1)
		}
	})
	e.Schedule(10, func() {})
	e.Run()
	if got, want := e.Stats(), (Stats{Events: 5, Handoffs: 1, SelfResumes: 3, PeakRunning: 1,
		LaneEvents: 1, HeapPushes: 1, DelayPushes: 3, PeakPending: 2}); got != want {
		t.Fatalf("delay-lane Stats = %+v, want %+v", got, want)
	}

	// Two processes sleeping in lockstep hand the baton over on every wake.
	e = New()
	for k := 0; k < 2; k++ {
		e.Spawn("pp", func(p *Proc) {
			for i := 0; i < 4; i++ {
				p.Sleep(1)
			}
		})
	}
	e.Run()
	if got, want := e.Stats(), (Stats{Events: 10, Handoffs: 10, SelfResumes: 0, PeakRunning: 2,
		LaneEvents: 2, HeapPushes: 8, PeakPending: 2}); got != want {
		t.Fatalf("ping-pong Stats = %+v, want %+v", got, want)
	}

	// A chained op's Resume runs each later stage as a step and its proc's
	// Run resumes once; a timer re-armed while armed moves its heap entry
	// in place.
	e = New()
	c := &chainer{s1: NewShare(e, 1, 1), s2: NewShare(e, 1, 1), w1: 1, w2: 2, lat: 3, rounds: 1, chained: true}
	e.Start(&c.proc, c)
	tm := NewTimer(e, func() {})
	tm.ResetAt(1)
	tm.ResetAt(5)
	e.Run()
	if got, want := e.Stats(), (Stats{Events: 7, Handoffs: 1, SelfResumes: 1, PeakRunning: 1,
		LaneEvents: 3, HeapPushes: 4, Rekeys: 1, Steps: 2, PeakPending: 2}); got != want {
		t.Fatalf("chained Stats = %+v, want %+v", got, want)
	}
}
