package sim

import "testing"

// TestPendingBoundedUnderTimerChurn is the regression test for the stale
// timer-event leak: every timer re-arm used to push a fresh closure into the
// event heap and leave the superseded one behind until its original deadline,
// so Pending() grew O(total re-arms). An armed timer now owns exactly one
// indexed heap entry that ResetAt re-keys in place.
func TestPendingBoundedUnderTimerChurn(t *testing.T) {
	e := New()
	fired := 0
	tm := NewTimer(e, func() { fired++ })
	const resets = 100_000
	for i := 0; i < resets; i++ {
		tm.ResetAt(e.Now() + Time(1000+i%97))
	}
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending() = %d after %d re-arms, want 1 (one live timer entry)", got, resets)
	}
	e.Run()
	if fired != 1 {
		t.Fatalf("timer fired %d times, want 1 (only the last re-arm counts)", fired)
	}

	// Churn interleaved with running: a rearm-on-fire pattern (Share's
	// completion timer) must not accumulate entries either.
	e2 := New()
	n := 0
	var tm2 *Timer
	tm2 = NewTimer(e2, func() {
		n++
		if n < 10_000 {
			tm2.ResetAt(e2.Now() + 3)
			tm2.ResetAt(e2.Now() + 1) // supersede immediately, as settle/rearm does
		}
	})
	tm2.ResetAt(e2.Now() + 1)
	e2.Run()
	if n != 10_000 {
		t.Fatalf("rearm chain fired %d times, want 10000", n)
	}
	if got := e2.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", got)
	}
}

// BenchmarkEngineSchedule measures the raw Schedule/pop cycle on a small
// steady-state queue (the common case, unlike the giant one-shot queue of
// BenchmarkEngineEventThroughput).
func BenchmarkEngineSchedule(b *testing.B) {
	e := New()
	fired := 0
	var step func()
	step = func() {
		fired++
		if fired < b.N {
			e.Schedule(1, step)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Schedule(0, step)
	e.Run()
	if fired != b.N {
		b.Fatalf("fired %d of %d", fired, b.N)
	}
}

// BenchmarkEngineSleep measures the full Sleep round trip: arm, schedule,
// yield, self-resume (no coroutine switch on this path).
func BenchmarkEngineSleep(b *testing.B) {
	e := New()
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineTimerChurn measures ResetAt-heavy rearming, the dominant
// timer operation of Share.
func BenchmarkEngineTimerChurn(b *testing.B) {
	e := New()
	fired := 0
	var tm *Timer
	tm = NewTimer(e, func() {
		fired++
		if fired < b.N {
			tm.ResetAt(e.Now() + 5)
			tm.ResetAt(e.Now() + 2)
			tm.ResetAt(e.Now() + 7) // three re-keys per fire, as settle/rearm churn does
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	tm.ResetAt(e.Now() + 1)
	e.Run()
	if fired != b.N {
		b.Fatalf("fired %d of %d", fired, b.N)
	}
}

// BenchmarkProcSwitchPair measures a two-process ping-pong where every
// switch hands the baton to the *other* process: two coroutine switches per
// handoff, through the dispatch loop in RunUntil (previously one channel
// handoff through the Go scheduler).
func BenchmarkProcSwitchPair(b *testing.B) {
	e := New()
	for k := 0; k < 2; k++ {
		e.Spawn("pp", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(1)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
