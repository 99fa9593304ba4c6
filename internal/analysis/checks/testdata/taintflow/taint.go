// The root fixture package holds the sink sites. Deliberately, NO banned
// call appears in this file — every nondeterminism source is at least one
// function (and usually one package) away, which is exactly the gap the
// per-file checks cannot see and taintflow must.
package fixture

import (
	"fmt"
	"os"
	"strconv"
	"sync"

	"fixture/clock"
	"fixture/sim"
)

// mkDelay wraps the cross-package wall-clock read: hop 2 of the chain
// time.Now -> clock.Stamp -> mkDelay -> Engine.Schedule.
func mkDelay() sim.Time { return sim.Time(clock.Stamp()) }

// scale passes its parameter through arithmetic to its return value.
func scale(d sim.Time) sim.Time { return d * 2 }

func scheduleNow(e *sim.Engine) {
	e.Schedule(mkDelay(), nil) // want `\[taintflow\] nondeterministic value reaches a sim-time sink: .*wall clock`
}

func scheduleScaled(e *sim.Engine) {
	e.Schedule(scale(mkDelay()), nil) // want `\[taintflow\] nondeterministic value reaches a sim-time sink: .*wall clock`
}

// post forwards its argument into the event heap; drain feeds it map-range
// values. Neither function alone is a finding for the syntactic checks (a
// plain identifier call is not a maprange sink), but the two-hop flow is
// order-dependent.
func post(e *sim.Engine, v int64) {
	e.Schedule(sim.Time(v), nil)
}

func drain(e *sim.Engine, m map[int]int64) {
	for _, v := range m {
		post(e, v) // want `\[taintflow\] nondeterministic value reaches a sim-time sink: .*map iteration order`
	}
}

// rearm re-keys a timer from map-range values: the Timer.Reset sink.
func rearm(t *sim.Timer, jitter map[int]sim.Time) {
	for _, j := range jitter {
		t.Reset(j) // want `\[taintflow\] nondeterministic value reaches a sim-time sink: .*map iteration order`
	}
}

// wakeEach arms a proc's wake-up from map-range values: the Proc.WakeAfter
// sink, Sleep's non-blocking half, which a proc's Resume arms.
func wakeEach(p *sim.Proc, delays map[int]sim.Time) {
	for _, d := range delays {
		p.WakeAfter(d) // want `\[taintflow\] nondeterministic value reaches a sim-time sink: .*map iteration order`
	}
}

// fromEnv launders the host environment through strconv.
func fromEnv(e *sim.Engine) {
	n, _ := strconv.ParseInt(os.Getenv("PAGODA_DELAY"), 10, 64)
	e.Schedule(sim.Time(n), nil) // want `\[taintflow\] nondeterministic value reaches a sim-time sink: .*host environment`
}

// fromPtr derives a delay from a pointer's identity.
func fromPtr(e *sim.Engine, x *int) {
	key, _ := strconv.ParseInt(fmt.Sprintf("%p", x)[2:], 16, 64)
	e.Schedule(sim.Time(key), nil) // want `\[taintflow\] nondeterministic value reaches a sim-time sink: .*pointer identity`
}

// fromSyncMap schedules inside a sync.Map.Range callback: the callback's
// values arrive in randomized order, like a map range.
func fromSyncMap(e *sim.Engine, m *sync.Map) {
	m.Range(func(k, v any) bool {
		d, ok := v.(sim.Time)
		if ok {
			e.Schedule(d, nil) // want `\[taintflow\] nondeterministic value reaches a sim-time sink: .*sync.Map iteration order`
		}
		return true
	})
}

// Configure is clean: a parameter of an entry point is an input, not a
// source — determinism means "same inputs, same bits".
func Configure(e *sim.Engine, d sim.Time) { e.Schedule(d, nil) }

// drainSorted is clean: slice iteration order is the slice's order.
func drainSorted(e *sim.Engine, ds []sim.Time) {
	for _, d := range ds {
		e.Schedule(d, nil)
	}
}

// drainAllowed demonstrates suppression of a multi-hop finding at the point
// where the taint meets the sink-reaching call.
func drainAllowed(e *sim.Engine, m map[int]int64) {
	for _, v := range m {
		postAllowed(e, v) //pagoda:allow taintflow every value in m is the same constant, so order cannot matter
	}
}

func postAllowed(e *sim.Engine, v int64) { e.Schedule(sim.Time(v), nil) }
