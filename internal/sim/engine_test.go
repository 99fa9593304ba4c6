package sim

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestScheduleOrdering(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(10, func() { got = append(got, 2) })
	e.Schedule(5, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 3) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 20 {
		t.Errorf("Now() = %v, want 20", e.Now())
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(7, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events out of schedule order: %v", got)
		}
	}
}

func TestNestedSchedule(t *testing.T) {
	e := New()
	var times []Time
	e.Schedule(1, func() {
		times = append(times, e.Now())
		e.Schedule(4, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 5 {
		t.Fatalf("times = %v, want [1 5]", times)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative delay")
		}
	}()
	New().Schedule(-1, func() {})
}

func TestScheduleInPastPanics(t *testing.T) {
	e := New()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.ScheduleAt(5, func() {})
	})
	e.Run()
}

// nanStepper is a proc whose Resume arms a wake-up at a NaN delay, on the
// event loop.
type nanStepper struct{ proc Proc }

func (s *nanStepper) Run(*Proc) {}

func (s *nanStepper) Resume(p *Proc) bool {
	p.WakeAfter(Time(math.NaN()))
	return false
}

func (s *nanStepper) String() string { return "nan-stepper" }

// TestNaNInstantsPanic: an event keyed at NaN would compare false with
// every other, fire out of turn and leave the clock at NaN, so every way
// to queue one panics naming it: Schedule, Timer.ResetAt (armed or not),
// Proc.Sleep and WakeAfter, and WakeAfter from a proc's Resume on
// the event loop. A Spawn body that recovers the panic and returns still
// ends its proc: the refused wake-up armed nothing. Share.Acquire of NaN
// work, whose completion instant would be NaN, panics at the call, naming
// the NaN work (TestNaNWorkPanicsAtCall).
func TestNaNInstantsPanic(t *testing.T) {
	nan := Time(math.NaN())
	inProc := func(body func(e *Engine, p *Proc)) func(e *Engine) any {
		return func(e *Engine) (got any) {
			e.Spawn("nan", func(p *Proc) {
				defer func() { got = recover() }()
				body(e, p)
			})
			e.Run()
			if n := e.LiveProcs(); n != 0 {
				return fmt.Sprintf("%d procs live after the body recovered %v", n, got)
			}
			return got
		}
	}
	const atNaN = "sim: schedule at NaN"
	for _, tc := range []struct {
		name string
		run  func(e *Engine) any
		want string
	}{
		{"Schedule", func(e *Engine) (got any) {
			defer func() { got = recover() }()
			e.Schedule(5, func() {})
			e.Schedule(nan, func() {})
			return nil
		}, atNaN},
		{"TimerResetAt", func(e *Engine) (got any) {
			defer func() { got = recover() }()
			NewTimer(e, func() {}).ResetAt(nan)
			return nil
		}, atNaN},
		{"ArmedTimerResetAt", func(e *Engine) (got any) {
			defer func() { got = recover() }()
			tm := NewTimer(e, func() {})
			tm.ResetAt(3)
			tm.ResetAt(nan)
			return nil
		}, atNaN},
		{"Sleep", inProc(func(_ *Engine, p *Proc) { p.Sleep(nan) }), atNaN},
		{"WakeAfter", inProc(func(_ *Engine, p *Proc) { p.WakeAfter(nan) }), atNaN},
		{"SteppedWakeAfter", func(e *Engine) (got any) {
			defer func() { got = recover() }()
			s := &nanStepper{}
			e.Start(&s.proc, s)
			e.Run()
			return nil
		}, atNaN},
		{"ShareAcquire", inProc(func(e *Engine, p *Proc) { NewShare(e, 1, 1).Acquire(p, math.NaN()) }),
			`sim: proc "nan" requested NaN work`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			defer e.Close()
			got, _ := tc.run(e).(string)
			if !strings.HasPrefix(got, tc.want) {
				t.Fatalf("panic %q, want one starting %q", got, tc.want)
			}
		})
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []Time
	for _, d := range []Time{1, 5, 9, 15} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(9)
	if len(fired) != 3 {
		t.Fatalf("fired = %v, want events at 1,5,9", fired)
	}
	if e.Now() != 9 {
		t.Errorf("Now() = %v, want 9", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("remaining event did not fire: %v", fired)
	}
}

func TestRunUntilDeadlineBetweenEvents(t *testing.T) {
	e := New()
	e.Schedule(100, func() {})
	e.RunUntil(50)
	if e.Now() != 50 {
		t.Errorf("Now() = %v, want clock advanced to deadline 50", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", e.Pending())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int {
		e := New()
		var order []int
		var rec func(id, depth int)
		rec = func(id, depth int) {
			order = append(order, id)
			if depth < 3 {
				e.Schedule(Time(id%3), func() { rec(id*10, depth+1) })
				e.Schedule(Time(id%2), func() { rec(id*10+1, depth+1) })
			}
		}
		for i := 1; i <= 5; i++ {
			i := i
			e.Schedule(Time(i), func() { rec(i, 0) })
		}
		e.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestRunUntilNeverRewindsClock: a deadline before Now fires nothing and
// leaves the clock where it is, so an event scheduled afterwards cannot fire
// before events that have already fired.
func TestRunUntilNeverRewindsClock(t *testing.T) {
	e := New()
	var fired []Time
	record := func() { fired = append(fired, e.Now()) }
	e.Schedule(10, record)
	e.Schedule(20, record)
	e.RunUntil(15)
	e.RunUntil(5)
	if e.Now() != 15 {
		t.Fatalf("Now() = %v after RunUntil(5) at 15, want 15", e.Now())
	}
	e.Schedule(0, record)
	e.Run()
	if want := []Time{10, 15, 20}; !slices.Equal(fired, want) {
		t.Fatalf("events fired at %v, want %v", fired, want)
	}
}
