package sim

import (
	"math"
	"testing"
)

func TestTimerFires(t *testing.T) {
	e := New()
	fired := Time(-1)
	tm := NewTimer(e, func() { fired = e.Now() })
	tm.Reset(25)
	if tm.ev == nil {
		t.Fatal("timer not armed after Reset")
	}
	e.Run()
	if fired != 25 {
		t.Fatalf("fired at %v, want 25", fired)
	}
	if tm.ev != nil {
		t.Error("timer still armed after firing")
	}
}

func TestTimerStop(t *testing.T) {
	e := New()
	fired := false
	tm := NewTimer(e, func() { fired = true })
	tm.Reset(10)
	tm.Stop()
	e.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerResetSupersedes(t *testing.T) {
	e := New()
	var fires []Time
	tm := NewTimer(e, func() { fires = append(fires, e.Now()) })
	tm.Reset(10)
	tm.Reset(30) // cancels the 10-cycle arming
	e.Run()
	if len(fires) != 1 || fires[0] != 30 {
		t.Fatalf("fires = %v, want [30]", fires)
	}
}

func TestTimerRearmAfterFire(t *testing.T) {
	e := New()
	var fires []Time
	var tm *Timer
	tm = NewTimer(e, func() {
		fires = append(fires, e.Now())
		if len(fires) < 3 {
			tm.Reset(5)
		}
	})
	tm.Reset(5)
	e.Run()
	if len(fires) != 3 || fires[2] != 15 {
		t.Fatalf("fires = %v, want [5 10 15]", fires)
	}
}

// TestTimerResetForwardSubUlpDelay: with the clock far enough out that
// now+delay == now, ResetForward fires one representable instant later
// instead of at now; a delay the clock can resolve fires exactly as Reset.
func TestTimerResetForwardSubUlpDelay(t *testing.T) {
	const far = Time(1 << 60) // float64 ulp here is 256 cycles
	e := New()
	var fires []Time
	tm := NewTimer(e, func() { fires = append(fires, e.Now()) })
	e.ScheduleAt(far, func() {
		if far+0.5 != far {
			t.Error("0.5-cycle delay is resolvable at the test instant")
		}
		tm.ResetForward(0.5)
	})
	e.Run()
	if want := math.Nextafter(far, math.Inf(1)); len(fires) != 1 || fires[0] != want {
		t.Fatalf("fires = %v, want [%v]", fires, want)
	}

	e = New()
	tm = NewTimer(e, func() { fires = append(fires, e.Now()) })
	fires = nil
	tm.ResetForward(25)
	e.Run()
	if len(fires) != 1 || fires[0] != 25 {
		t.Fatalf("resolvable delay: fires = %v, want [25]", fires)
	}
}

func TestTimerDeadline(t *testing.T) {
	e := New()
	fired := Time(-1)
	tm := NewTimer(e, func() { fired = e.Now() })
	e.Schedule(7, func() { tm.Reset(13) })
	e.Run()
	if fired != 20 {
		t.Fatalf("fired at %v, want 20 (13 after the Reset at 7)", fired)
	}
}
