package sim

import (
	"fmt"
	"math"
)

// shareEps absorbs floating-point drift when deciding that a request has
// received all of its service.
const shareEps = 1e-6

// Share is an egalitarian fair-share resource: each of n concurrent requests
// progresses at min(perFlow, capacity/n) work units per unit time. It models
// every contended rate in the simulator: an SMM's issue slots (perFlow 1, so
// a lone warp cannot issue faster than one instruction per cycle),
// device-memory bandwidth and each direction of a PCIe link (perFlow +Inf,
// so a lone transfer takes the whole capacity).
//
// Completion times are event-driven: whenever the active set changes,
// accumulated progress is settled and one timer is re-armed for the earliest
// finisher. The earliest finisher is tracked, not searched for: settling
// subtracts the same amount from every request, and float subtraction is
// monotonic, so a request with the least remaining work keeps it until the
// active set changes.
type Share struct {
	eng      *Engine
	capacity float64
	perFlow  float64
	// reqs holds in-service requests by value; completion compacts in place
	// and reuses the backing array, so steady-state Acquire never allocates.
	reqs []shareReq
	// min indexes a request with the least remaining work while reqs is
	// non-empty.
	min   int
	last  Time
	timer *Timer

	// busy accumulates min(n·perFlow, capacity)·dt, the capacity in use,
	// up to last.
	busy float64
}

type shareReq struct {
	remaining float64
	proc      *Proc
}

// NewShare returns an idle resource of the given capacity (work units per
// unit time) whose requests are each capped at perFlow; pass math.Inf(1)
// for no per-request cap.
func NewShare(e *Engine, capacity, perFlow float64) *Share {
	s := &Share{eng: e, capacity: capacity, perFlow: perFlow, last: e.now}
	s.timer = NewTimer(e, s.onTimer)
	return s
}

// rate is each request's progress per unit time; n must be positive.
func (s *Share) rate(n int) float64 {
	return math.Min(s.perFlow, s.capacity/float64(n))
}

// used is the capacity in use with n requests in service.
func (s *Share) used(n int) float64 {
	return math.Min(float64(n)*s.perFlow, s.capacity)
}

// settle accrues progress and busy time for the interval since the last
// change of the active set.
func (s *Share) settle() {
	now := s.eng.now
	if n := len(s.reqs); n > 0 {
		if dt := now - s.last; dt > 0 {
			rt := s.rate(n)
			for i := range s.reqs {
				s.reqs[i].remaining -= dt * rt
			}
			s.busy += dt * s.used(n)
		}
	}
	s.last = now
}

// rearm schedules the completion timer for the earliest-finishing request.
// With no request left there is nothing to arm, and the timer is already
// disarmed: only onTimer empties reqs, and it runs because the timer fired.
func (s *Share) rearm() {
	if len(s.reqs) == 0 {
		return
	}
	minRem := s.reqs[s.min].remaining
	if minRem < 0 {
		minRem = 0
	}
	s.timer.ResetForward(minRem / s.rate(len(s.reqs)))
}

// onTimer completes every request that has received its service, in
// arrival order, and re-arms for the earliest of the rest.
func (s *Share) onTimer() {
	s.settle()
	kept := s.reqs[:0]
	s.min = 0
	for _, r := range s.reqs {
		if r.remaining <= shareEps {
			r.proc.Wakeup()
			continue
		}
		if len(kept) > 0 && r.remaining < kept[s.min].remaining {
			s.min = len(kept)
		}
		kept = append(kept, r)
	}
	s.reqs = kept
	s.rearm()
}

// push settles and enters a request of work units for p.
func (s *Share) push(p *Proc, work float64) {
	s.settle()
	if len(s.reqs) == 0 || work < s.reqs[s.min].remaining {
		s.min = len(s.reqs)
	}
	s.reqs = append(s.reqs, shareReq{remaining: work, proc: p})
	s.rearm()
}

// needsService reports whether a request of work units needs serving:
// false for work <= 0. NaN work panics here, at the call: queued, it would
// take a share of the rate from every other request and fail only later,
// from the share's timer.
func needsService(p *Proc, work float64) bool {
	if work > 0 {
		return true
	}
	if work != work {
		panic(fmt.Sprintf("sim: proc %q requested NaN work", p.Name()))
	}
	return false
}

// Acquire blocks p until `work` units of service have been delivered under
// fair sharing. work <= 0 returns immediately; NaN work panics.
func (s *Share) Acquire(p *Proc, work float64) {
	if s.AcquireThen(p, work) {
		p.Await()
	}
}

// AcquireThen is Acquire's non-blocking half: it queues `work` units for p
// and arms p's wake-up for when they are served. It reports false, arming
// nothing, when work <= 0, and panics on NaN work.
func (s *Share) AcquireThen(p *Proc, work float64) bool {
	if !needsService(p, work) {
		return false
	}
	s.push(p, work)
	p.park()
	return true
}

// Integrals returns the busy integral up to now: capacity-time in use,
// ∫ min(n·perFlow, capacity) dt; divide by capacity·elapsed for
// utilization. It is a pure read: it settles nothing and leaves the
// completion timer alone, so sampling it mid-run cannot perturb the run.
func (s *Share) Integrals() (busy float64) {
	busy = s.busy
	if n := len(s.reqs); n > 0 {
		if dt := s.eng.now - s.last; dt > 0 {
			busy += dt * s.used(n)
		}
	}
	return busy
}
