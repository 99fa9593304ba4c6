package sim

import "math"

// Timer is a re-armable one-shot timer. Unlike raw Schedule calls, a Timer
// can be re-armed before it fires. The timer owns a single indexed entry in
// the engine's event heap, even when armed for the current instant: ResetAt
// re-keys that entry in place, so rearm-heavy users (Share, which re-arms on
// every arrival and completion) leave no stale events behind and
// Engine.Pending stays proportional to live timers, not total Resets. A
// Timer is the step its entry carries.
type Timer struct {
	eng *Engine
	fn  func()
	ev  *event // heap entry while armed, nil otherwise
}

// NewTimer returns a timer that invokes fn on the engine's event loop when it
// fires. The timer starts unarmed.
func NewTimer(e *Engine, fn func()) *Timer {
	return &Timer{eng: e, fn: fn}
}

// ResetForward arms the timer to fire after delay, cancelling any earlier
// arming, and always moves the clock: when delay is below the clock's
// float64 ulp (now+delay == now), it fires at the next representable
// instant instead of now. Share rearms with it — far into a run a tiny
// residual drain delay would otherwise re-fire at one instant forever, each
// settle seeing dt=0 and draining nothing; one ulp's drain exceeds the
// residue, so the flow completes there.
func (t *Timer) ResetForward(delay Time) {
	now := t.eng.now
	if at := now + delay; at != now {
		t.ResetAt(at)
		return
	}
	t.ResetAt(math.Nextafter(now, math.Inf(1)))
}

// ResetAt arms the timer to fire at absolute time at, cancelling any earlier
// arming. An armed timer's queue entry is re-keyed in place; re-arming never
// grows the queue. The entry takes a fresh sequence number, so the firing
// order relative to other same-timestamp events is exactly as if it had been
// newly scheduled.
func (t *Timer) ResetAt(at Time) {
	e := t.eng
	if t.ev != nil {
		e.checkAt(at)
		e.seq++
		t.ev.at = at
		t.ev.seq = e.seq
		e.heapFix(t.ev.idx)
		e.stats.Rekeys++
		return
	}
	ev := e.allocEvent(at)
	ev.step = t
	e.heapPush(ev)
	t.ev = ev
}

// fire is the timer's firing, run by the engine once the timer's entry has
// left the queue.
func (t *Timer) fire() {
	t.ev = nil
	t.fn()
}
