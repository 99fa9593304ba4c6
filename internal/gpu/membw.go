package gpu

import (
	"math"

	"repro/internal/sim"
)

// bwResource models device-memory bandwidth: n concurrent transfers share
// `rate` bytes per cycle equally, with no per-flow cap (unlike the issue
// engine's psResource, a single access may consume the full bandwidth).
type bwResource struct {
	eng  *sim.Engine
	rate float64 // bytes per cycle
	// reqs holds in-flight transfers by value; completion compacts in place
	// and reuses the backing array, so steady-state Acquire never allocates.
	reqs  []bwReq
	last  sim.Time
	timer *sim.Timer

	// bytesIntegral accumulates delivered bytes (metrics).
	bytesIntegral float64
}

type bwReq struct {
	remaining float64
	proc      *sim.Proc
}

func newBWResource(eng *sim.Engine, rate float64) *bwResource {
	r := &bwResource{eng: eng, rate: rate, last: eng.Now()}
	r.timer = sim.NewTimer(eng, r.onTimer)
	return r
}

func (r *bwResource) perFlow() float64 {
	if len(r.reqs) == 0 {
		return 0
	}
	return r.rate / float64(len(r.reqs))
}

func (r *bwResource) settle() {
	now := r.eng.Now()
	dt := now - r.last
	if dt > 0 && len(r.reqs) > 0 {
		pf := r.perFlow()
		for i := range r.reqs {
			r.reqs[i].remaining -= dt * pf
		}
		r.bytesIntegral += dt * r.rate
	}
	r.last = now
}

func (r *bwResource) rearm() {
	if len(r.reqs) == 0 {
		r.timer.Stop()
		return
	}
	minRem := math.Inf(1)
	for i := range r.reqs {
		if r.reqs[i].remaining < minRem {
			minRem = r.reqs[i].remaining
		}
	}
	if minRem < 0 {
		minRem = 0
	}
	r.timer.ResetForward(minRem / r.perFlow())
}

func (r *bwResource) onTimer() {
	r.settle()
	kept := r.reqs[:0]
	for i := range r.reqs {
		if r.reqs[i].remaining <= 1e-6 {
			r.reqs[i].proc.Wakeup()
		} else {
			kept = append(kept, r.reqs[i])
		}
	}
	r.reqs = kept
	r.rearm()
}

// Acquire blocks p until `bytes` of bandwidth have been delivered.
func (r *bwResource) Acquire(p *sim.Proc, bytes int) {
	if bytes <= 0 {
		return
	}
	r.settle()
	r.reqs = append(r.reqs, bwReq{remaining: float64(bytes), proc: p})
	r.rearm()
	p.Block()
}

// InFlight returns the number of transfers currently sharing the bandwidth.
func (r *bwResource) InFlight() int { return len(r.reqs) }
