package sim

import (
	"testing"
)

func TestProcSleep(t *testing.T) {
	e := New()
	var wakes []Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10)
		wakes = append(wakes, p.Now())
		p.Sleep(5)
		wakes = append(wakes, p.Now())
	})
	e.Run()
	if len(wakes) != 2 || wakes[0] != 10 || wakes[1] != 15 {
		t.Fatalf("wakes = %v, want [10 15]", wakes)
	}
	if e.LiveProcs() != 0 {
		t.Errorf("LiveProcs = %d, want 0", e.LiveProcs())
	}
}

func TestProcInterleaving(t *testing.T) {
	e := New()
	var trace []string
	mk := func(name string, period Time, n int) {
		e.Spawn(name, func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(period)
				trace = append(trace, name)
			}
		})
	}
	mk("a", 2, 3) // wakes at 2,4,6
	mk("b", 3, 2) // wakes at 3,6
	e.Run()
	// At t=6 both wake; b's wake event was scheduled at t=3, a's at t=4, so
	// FIFO tie-breaking runs b first.
	want := []string{"a", "b", "a", "b", "a"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestSleepZeroYields(t *testing.T) {
	e := New()
	var trace []string
	e.Spawn("x", func(p *Proc) {
		trace = append(trace, "x1")
		p.Sleep(0)
		trace = append(trace, "x2")
	})
	e.Spawn("y", func(p *Proc) {
		trace = append(trace, "y1")
	})
	e.Run()
	// x starts first (spawned first), yields at Sleep(0); y (already queued)
	// runs; then x resumes.
	want := []string{"x1", "y1", "x2"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestSignalBroadcast(t *testing.T) {
	e := New()
	var sig Signal
	var woken []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			sig.Wait(p)
			woken = append(woken, name)
		})
	}
	e.Spawn("caster", func(p *Proc) {
		p.Sleep(100)
		sig.Broadcast()
	})
	e.Run()
	if len(woken) != 3 {
		t.Fatalf("woken = %v, want all three waiters", woken)
	}
	// FIFO wake order.
	want := []string{"w1", "w2", "w3"}
	for i := range want {
		if woken[i] != want[i] {
			t.Fatalf("wake order = %v, want %v", woken, want)
		}
	}
}

func TestSignalPulse(t *testing.T) {
	e := New()
	var sig Signal
	woken := 0
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Proc) {
			sig.Wait(p)
			woken++
		})
	}
	e.Spawn("pulser", func(p *Proc) {
		p.Sleep(1)
		if !sig.Pulse() {
			t.Error("Pulse returned false with waiters parked")
		}
		p.Sleep(1)
		sig.Pulse()
	})
	e.Run()
	if woken != 2 {
		t.Fatalf("woken = %d, want 2", woken)
	}
	if sig.Waiting() != 1 {
		t.Fatalf("Waiting() = %d, want 1", sig.Waiting())
	}
}

func TestPulseEmptySignal(t *testing.T) {
	var sig Signal
	if sig.Pulse() {
		t.Fatal("Pulse on empty signal returned true")
	}
}

func TestProducerConsumer(t *testing.T) {
	e := New()
	var (
		queue    []int
		notEmpty Signal
		got      []int
	)
	e.Spawn("consumer", func(p *Proc) {
		for len(got) < 5 {
			for len(queue) == 0 {
				notEmpty.Wait(p)
			}
			got = append(got, queue[0])
			queue = queue[1:]
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 5; i++ {
			p.Sleep(10)
			queue = append(queue, i)
			notEmpty.Broadcast()
		}
	})
	e.Run()
	if len(got) != 5 {
		t.Fatalf("got = %v, want 5 items", got)
	}
	for i := range got {
		if got[i] != i+1 {
			t.Fatalf("got = %v, want [1 2 3 4 5]", got)
		}
	}
	if e.Now() != 50 {
		t.Errorf("Now() = %v, want 50", e.Now())
	}
}

// block parks p with no wake-up of its own: only a Wakeup resumes it.
func block(p *Proc) {
	p.park()
	p.Await()
}

func TestBlockWakeup(t *testing.T) {
	e := New()
	var blocked *Proc
	done := false
	blocked = e.Spawn("blocked", func(p *Proc) {
		block(p)
		done = true
	})
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(42)
		blocked.Wakeup()
	})
	e.Run()
	if !done {
		t.Fatal("blocked proc never woke")
	}
	if e.Now() != 42 {
		t.Errorf("Now() = %v, want 42", e.Now())
	}
}

func TestWakeupOnDeadProcIsNoop(t *testing.T) {
	e := New()
	p := e.Spawn("short", func(p *Proc) {})
	e.Spawn("waker", func(q *Proc) {
		q.Sleep(5)
		p.Wakeup() // must not panic or deadlock
	})
	e.Run()
}

func TestDoubleWakeupSuppressed(t *testing.T) {
	e := New()
	count := 0
	var target *Proc
	target = e.Spawn("t", func(p *Proc) {
		block(p)
		count++
		p.Sleep(100) // arm a new wake-up; stale wakeups must not hit this
		count++
	})
	e.Spawn("w", func(p *Proc) {
		p.Sleep(1)
		target.Wakeup()
		target.Wakeup() // second wake-up is stale
	})
	e.Run()
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	if e.Now() < 101 {
		t.Errorf("Now() = %v; stale wakeup appears to have cut the sleep short", e.Now())
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := New()
	var trace []string
	e.Spawn("parent", func(p *Proc) {
		trace = append(trace, "parent")
		e.Spawn("child", func(c *Proc) {
			c.Sleep(3)
			trace = append(trace, "child")
		})
		p.Sleep(10)
		trace = append(trace, "parent-end")
	})
	e.Run()
	want := []string{"parent", "child", "parent-end"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

// TestSpawnBodyEndsWhenItReturns: a Spawn body that arms a wake-up and
// returns without waiting for it ends its proc; the wake-up fires as
// stale and the body does not run again.
func TestSpawnBodyEndsWhenItReturns(t *testing.T) {
	e := New()
	runs := 0
	e.Spawn("armer", func(p *Proc) {
		runs++
		p.WakeAfter(5)
	})
	e.Run()
	if runs != 1 || e.LiveProcs() != 0 {
		t.Fatalf("body ran %d times, %d procs live; want 1 run and none live", runs, e.LiveProcs())
	}
	if st := e.Stats(); st.Events != 1 {
		t.Errorf("%d events fired, want only the start (the armed wake-up is stale)", st.Events)
	}
}

func TestManyProcsDeterministic(t *testing.T) {
	run := func() []int {
		e := New()
		var order []int
		for i := 0; i < 200; i++ {
			i := i
			e.Spawn("p", func(p *Proc) {
				p.Sleep(Time(i % 7))
				order = append(order, i)
				p.Sleep(Time(i % 3))
				order = append(order, -i)
			})
		}
		e.Run()
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic proc interleaving at %d", i)
		}
	}
}

// namedRunner is a Runner that embeds its Proc and counts String calls.
type namedRunner struct {
	proc    Proc
	strings int
}

func (r *namedRunner) Run(p *Proc)       { block(p) }
func (r *namedRunner) Resume(*Proc) bool { return true }

func (r *namedRunner) String() string {
	r.strings++
	return "runner"
}

// TestStartNamesOnDemand: a proc begun with Start runs its Runner, is named
// by the Runner's String only when the name is read, and cannot be started
// a second time.
func TestStartNamesOnDemand(t *testing.T) {
	e := New()
	t.Cleanup(e.Close)
	r := &namedRunner{}
	e.Start(&r.proc, r)
	e.Run()
	if r.strings != 0 {
		t.Fatalf("String called %d times before any read", r.strings)
	}
	if got := e.BlockedProcs(); len(got) != 1 || got[0] != "runner" || r.proc.Name() != "runner" {
		t.Fatalf("BlockedProcs = %q, Name = %q, want [runner], runner", got, r.proc.Name())
	}
	defer func() {
		if got, want := recover(), `sim: proc "runner" started twice`; got != want {
			t.Errorf("second Start panic = %v, want %q", got, want)
		}
	}()
	e.Start(&r.proc, r)
}

// lifeRunner is a Runner whose body can be swapped between the lives of its
// one Proc.
type lifeRunner struct {
	proc Proc
	body func(p *Proc)
}

func (r *lifeRunner) Run(p *Proc)       { r.body(p) }
func (r *lifeRunner) Resume(*Proc) bool { return true }
func (r *lifeRunner) String() string    { return "life" }

// TestRestartFinishedProc: a finished proc starts again and runs its new
// body. A wake-up queued in its last life is dropped as stale, even where a
// fresh proc's wake generation would match it, and fires no event.
// Starting the proc while it lives, or on another engine, still panics.
func TestRestartFinishedProc(t *testing.T) {
	e := New()
	t.Cleanup(e.Close)
	r := &lifeRunner{}
	firstEnd, woke := Time(-1), Time(-1)
	r.body = func(p *Proc) {
		p.WakeAfter(10) // generation 2: the start event was generation 1
		p.Await()
		firstEnd = p.Now()
	}
	e.Start(&r.proc, r)
	// Resume it at 1, so it finishes with its wake-up at 10 still queued.
	e.Schedule(1, func() { r.proc.Wakeup() })
	e.Schedule(2, func() {
		r.body = func(p *Proc) {
			p.Sleep(100) // a zeroed generation would sleep under 2 as well
			woke = p.Now()
		}
		e.Start(&r.proc, r)
	})
	e.Run()
	if firstEnd != 1 || woke != 102 {
		t.Fatalf("first life ended at %v, second woke at %v; want 1 and 102", firstEnd, woke)
	}
	// Two starts, two resumes, two callbacks; the stale wake-up at 10 fires
	// nothing.
	if got := e.Stats().Events; got != 6 {
		t.Errorf("Events = %d, want 6", got)
	}
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("%d procs live after the run, want 0", n)
	}

	var never Signal
	r.body = func(p *Proc) { never.Wait(p) }
	e.Start(&r.proc, r)
	e.Run()
	startPanic := func(eng *Engine) (v any) {
		defer func() { v = recover() }()
		eng.Start(&r.proc, r)
		return nil
	}
	want := `sim: proc "life" started twice`
	if got := startPanic(e); got != want {
		t.Errorf("Start of a parked proc: panic %v, want %q", got, want)
	}
	e.Close()
	if got := startPanic(New()); got != want {
		t.Errorf("Start of a finished proc on another engine: panic %v, want %q", got, want)
	}
}
