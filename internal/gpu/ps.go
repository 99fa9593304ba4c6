package gpu

import (
	"math"

	"repro/internal/sim"
)

// psEps absorbs floating-point drift when deciding that a processor-sharing
// request has completed.
const psEps = 1e-6

// psResource is an egalitarian processor-sharing resource: n concurrent
// requests each progress at rate min(1, width/n) work units per cycle. It
// models an SMM's instruction-issue bandwidth: a lone warp cannot exceed one
// instruction per cycle, and more than `width` ready warps share the issue
// slots equally.
//
// Completion times are maintained with an event-driven schedule: whenever the
// active set changes, accumulated progress is settled and the completion
// timer is re-armed for the earliest finisher.
type psResource struct {
	eng   *sim.Engine
	width float64
	// reqs holds in-service requests by value; completion compacts in place
	// and reuses the backing array, so steady-state Acquire never allocates.
	reqs  []psReq
	last  sim.Time
	timer *sim.Timer

	// busyIntegral accumulates min(n, width) dt — issue slots in use — and
	// weightedQueue accumulates n dt, for utilization metrics.
	busyIntegral  float64
	queueIntegral float64
}

type psReq struct {
	remaining float64
	proc      *sim.Proc
}

func newPSResource(eng *sim.Engine, width float64) *psResource {
	r := &psResource{eng: eng, width: width, last: eng.Now()}
	r.timer = sim.NewTimer(eng, r.onTimer)
	return r
}

func (r *psResource) rate() float64 {
	n := len(r.reqs)
	if n == 0 {
		return 0
	}
	return math.Min(1, r.width/float64(n))
}

// settle accrues progress for the interval since the last state change.
func (r *psResource) settle() {
	now := r.eng.Now()
	dt := now - r.last
	if dt > 0 {
		rt := r.rate()
		n := float64(len(r.reqs))
		for i := range r.reqs {
			r.reqs[i].remaining -= dt * rt
		}
		r.busyIntegral += dt * math.Min(n, r.width)
		r.queueIntegral += dt * n
	}
	r.last = now
}

// rearm schedules the completion timer for the earliest-finishing request.
func (r *psResource) rearm() {
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
	r.timer.ResetForward(minRem / r.rate())
}

func (r *psResource) onTimer() {
	r.settle()
	kept := r.reqs[:0]
	for i := range r.reqs {
		if r.reqs[i].remaining <= psEps {
			r.reqs[i].proc.Wakeup()
		} else {
			kept = append(kept, r.reqs[i])
		}
	}
	r.reqs = kept
	r.rearm()
}

// Acquire blocks p until `work` issue-cycles of service have been delivered
// under processor sharing. work <= 0 returns immediately.
func (r *psResource) Acquire(p *sim.Proc, work float64) {
	if work <= 0 {
		return
	}
	r.settle()
	r.reqs = append(r.reqs, psReq{remaining: work, proc: p})
	r.rearm()
	p.Block()
}

// Active returns the number of in-service requests (ready warps).
func (r *psResource) Active() int { return len(r.reqs) }

// BusyIntegral returns issue-slot-cycles consumed so far; divide by
// width*elapsed for utilization. The caller should settle first via Poke.
func (r *psResource) BusyIntegral() float64 { return r.busyIntegral }

// QueueIntegral returns ready-warp-cycles accumulated so far.
func (r *psResource) QueueIntegral() float64 { return r.queueIntegral }

// Poke settles accounting up to the current instant (for metric snapshots).
func (r *psResource) Poke() { r.settle(); r.rearm() }
