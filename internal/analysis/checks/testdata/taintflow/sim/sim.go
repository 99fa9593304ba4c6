// Package sim is a miniature stand-in for repro/internal/sim: same type and
// method names, so the taintflow base-sink table (matched by package base
// name "sim" plus receiver and method) binds to it exactly as it binds to
// the real engine.
package sim

// Time is simulated time, like the real engine's.
type Time int64

// Engine mirrors the real event loop's scheduling surface.
type Engine struct{ now Time }

func (e *Engine) Schedule(d Time, fn func())    {}
func (e *Engine) ScheduleAt(at Time, fn func()) {}
func (e *Engine) RunUntil(deadline Time) Time   { return e.now }

// Timer mirrors the re-armable one-shot timer.
type Timer struct{ at Time }

func (t *Timer) Reset(d Time)    { t.at = d }
func (t *Timer) ResetAt(at Time) { t.at = at }

// Proc mirrors the engine process handle.
type Proc struct{}

func (p *Proc) Sleep(d Time)     {}
func (p *Proc) WakeAfter(d Time) {}
