package sim

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// startOn begins body as a process parked on sig.
func startOn(e *Engine, sig *Signal, name string, body func(p *Proc)) *Proc {
	s := &spawned{name: name, body: body}
	e.StartOn(sig, &s.proc, s)
	return &s.proc
}

// parkedScenario parks a and b on a signal at t0, then the subject x, then
// c; a waker then pulses (or broadcasts) the signal with callbacks scheduled
// right before and after each wake. With parked set, x is begun with
// StartOn; otherwise it is spawned and waits at once, the reference. Every
// resume and callback is logged with its time, so two logs are equal only
// when every wake-up fired at the same (at, seq) slot relative to the rest.
func parkedScenario(parked, broadcast bool) []string {
	e := New()
	defer e.Close()
	var sig Signal
	var log []string
	waiter := func(name string) func(p *Proc) {
		return func(p *Proc) {
			for {
				sig.Wait(p)
				log = append(log, fmt.Sprintf("%s@%v", name, p.Now()))
			}
		}
	}
	e.Spawn("a", waiter("a"))
	e.Spawn("b", waiter("b"))
	e.RunUntil(0)
	if parked {
		// The body starts from the top on each wake-up, so it logs first.
		startOn(e, &sig, "x", func(p *Proc) {
			for {
				log = append(log, fmt.Sprintf("x@%v", p.Now()))
				sig.Wait(p)
			}
		})
	} else {
		e.Spawn("x", waiter("x"))
	}
	e.Spawn("c", waiter("c"))
	e.RunUntil(0)
	e.Spawn("waker", func(p *Proc) {
		for round := 0; round < 3; round++ {
			p.Sleep(1)
			mark := func(s string) func() {
				return func() { log = append(log, fmt.Sprintf("%s%d@%v", s, round, p.Now())) }
			}
			e.Schedule(0, mark("before"))
			if broadcast {
				sig.Broadcast()
			} else {
				for sig.Pulse() {
					e.Schedule(0, mark("between"))
				}
			}
			e.Schedule(0, mark("after"))
		}
	})
	e.Run()
	return log
}

// TestStartOnWakesLikeAWaiter: a proc begun parked on a Signal between
// procs that Wait on it resumes in the same FIFO position and the same
// (at, seq) slot as a proc that had called Wait at that point, under both
// Pulse and Broadcast.
func TestStartOnWakesLikeAWaiter(t *testing.T) {
	for _, broadcast := range []bool{false, true} {
		want := parkedScenario(false, broadcast)
		got := parkedScenario(true, broadcast)
		if !slices.Equal(got, want) {
			t.Fatalf("broadcast=%v: log\n got %v\nwant %v", broadcast, got, want)
		}
		first := "before0@1 a@1 b@1 x@1 c@1 after0@1"
		if !broadcast {
			first = "before0@1 a@1 between0@1 b@1 between0@1 x@1"
		}
		if s := strings.Join(want, " "); !strings.HasPrefix(s, first) {
			t.Fatalf("broadcast=%v: reference log %q does not start with %q", broadcast, s, first)
		}
	}
}

// TestStartOnNeverWoken: a parked proc that is never woken is listed by
// BlockedProcs, holds no coroutine, and Close retires it without running
// its body or leaving a goroutine.
func TestStartOnNeverWoken(t *testing.T) {
	run := func() {
		e := New()
		var sig, other Signal
		for i := 0; i < 64; i++ {
			startOn(e, &sig, fmt.Sprintf("idle%d", i), func(p *Proc) { t.Error("idle proc ran") })
		}
		woken := startOn(e, &other, "woken", func(p *Proc) {
			p.Sleep(5)
			other.Wait(p)
		})
		e.Spawn("waker", func(p *Proc) { other.Broadcast() })
		e.RunUntil(1)
		if got := e.BlockedProcs(); len(got) != 64 || got[63] != "idle63" {
			t.Fatalf("BlockedProcs while woken sleeps = %v, want idle0..idle63", got)
		}
		e.Run()
		if got := e.BlockedProcs(); len(got) != 65 || got[0] != "idle0" || got[64] != "woken" {
			t.Fatalf("BlockedProcs = %v, want idle0..idle63 then woken", got)
		}
		if st := e.Stats(); st.PeakRunning != 1 || st.Events != 3 {
			t.Fatalf("Stats = %+v, want 3 events and PeakRunning 1: the waker ends before woken starts", st)
		}
		e.Close()
		if e.LiveProcs() != 0 || len(e.BlockedProcs()) != 0 || woken.w != nil {
			t.Fatalf("after Close: LiveProcs = %d, BlockedProcs = %v", e.LiveProcs(), e.BlockedProcs())
		}
		sig.Broadcast() // a stale wake-up of a retired proc is a no-op
		if e.Pending() != 0 {
			t.Fatalf("Pending = %d after waking retired procs, want 0", e.Pending())
		}
	}
	run()
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		run()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d after five closed runs, %d before", after, before)
	}
}

// TestStartOnTwicePanics: StartOn, like Start, refuses a proc that has
// already been begun, either way round.
func TestStartOnTwicePanics(t *testing.T) {
	e := New()
	t.Cleanup(e.Close)
	var sig Signal
	r := &namedRunner{}
	e.StartOn(&sig, &r.proc, r)
	r2 := &namedRunner{}
	e.Start(&r2.proc, r2)
	for _, again := range []func(){
		func() { e.Start(&r.proc, r) },
		func() { e.StartOn(&sig, &r.proc, r) },
		func() { e.StartOn(&sig, &r2.proc, r2) },
	} {
		func() {
			defer func() {
				if got, want := recover(), `sim: proc "runner" started twice`; got != want {
					t.Errorf("second start panic = %v, want %q", got, want)
				}
			}()
			again()
		}()
	}
	if sig.Waiting() != 1 {
		t.Fatalf("Waiting = %d after refused starts, want 1", sig.Waiting())
	}
}

// TestRetireParked: Retire finishes a StartOn proc before its body starts,
// even with a wake-up already queued, and leaves a started proc or a Start
// proc alone.
func TestRetireParked(t *testing.T) {
	e := New()
	t.Cleanup(e.Close)
	var sig, other Signal
	idle := startOn(e, &sig, "idle", func(p *Proc) { t.Error("retired proc ran") })
	woken := startOn(e, &sig, "woken", func(p *Proc) { t.Error("retired proc ran") })
	running := startOn(e, &other, "running", func(p *Proc) { other.Wait(p) })
	spawned := e.Spawn("spawned", func(p *Proc) { block(p) })
	other.Broadcast()
	e.Run()
	sig.Broadcast() // queues wake-ups for idle and woken
	if !woken.Retire() {
		t.Fatal("Retire refused a woken proc whose body had not started")
	}
	if running.Retire() || spawned.Retire() {
		t.Fatal("Retire finished a proc whose body had started")
	}
	if !idle.Retire() || idle.Retire() {
		t.Fatal("Retire of a parked proc: want true once, then false")
	}
	e.Run()
	if got := e.BlockedProcs(); len(got) != 2 || got[0] != "running" || got[1] != "spawned" {
		t.Fatalf("BlockedProcs = %v, want [running spawned]", got)
	}
	if st := e.Stats(); st.PeakRunning != 2 {
		t.Fatalf("PeakRunning = %d, want 2: retired procs never held a coroutine", st.PeakRunning)
	}
}
