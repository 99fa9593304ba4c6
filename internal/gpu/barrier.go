package gpu

import "repro/internal/sim"

// Barrier is a reusable rendezvous for a fixed number of warps, modelling
// both __syncthreads() (one barrier per threadblock) and PTX named barriers
// (bar.sync with an ID, as used by Pagoda's syncBlock()). Reuse across
// generations is safe: the waiters are woken only when a generation ends, so
// a woken warp is past its barrier, and a fast warp that arrives again waits
// for the next generation even while a slow one is still waking.
//
// The zero Barrier has no participants; Reset sets its count.
type Barrier struct {
	need    int
	arrived int
	sig     sim.Signal
}

// Reset changes the participant count. Only legal while no warp is waiting
// (Pagoda recycles the 16 named-barrier IDs between tasks).
func (b *Barrier) Reset(need int) {
	if b.arrived != 0 || b.sig.Waiting() != 0 {
		panic("gpu: Reset on a barrier in use")
	}
	if need <= 0 {
		panic("gpu: barrier needs at least one participant")
	}
	b.need = need
}

// Arrive blocks p until all participants of the current generation arrive.
func (b *Barrier) Arrive(p *sim.Proc) {
	if b.arrive(p) {
		p.Await()
	}
}

// arrive is Arrive's non-blocking half: p arrives and, unless it is the
// generation's last participant, parks until the last one arrives. It
// reports whether p parked.
func (b *Barrier) arrive(p *sim.Proc) bool {
	b.arrived++
	if b.arrived == b.need {
		b.arrived = 0
		b.sig.Broadcast()
		return false
	}
	if b.arrived == 1 {
		// The first arrival of a generation sizes the waiter list once for
		// the barrier's lifetime; later generations reuse it.
		b.sig.Grow(b.need - 1)
	}
	b.sig.Park(p)
	return true
}

// AtomicSite serializes atomic operations targeting one memory location (or
// one contended line, e.g. a queue head pointer). Each operation occupies the
// site for `service` cycles; concurrent requests queue FIFO, which is exactly
// the contention the paper attributes to single-queue task schedulers.
type AtomicSite struct {
	service sim.Time
	busy    bool
	queue   sim.Signal
}

// NewAtomicSite creates a site with the given per-operation service time.
func NewAtomicSite(service sim.Time) *AtomicSite {
	return &AtomicSite{service: service}
}

// Do performs one atomic operation, blocking p for queueing plus service
// time.
func (s *AtomicSite) Do(p *sim.Proc) {
	for !s.Enter(p) {
		p.Await()
	}
	p.Await()
	s.Leave()
}

// Enter is the non-blocking start of an operation by p, which must Leave
// when woken if Enter reports true: p holds the site and wakes once its
// service time has passed. False means another operation holds the site and
// p is queued behind it, to Enter again when woken.
func (s *AtomicSite) Enter(p *sim.Proc) bool {
	if s.busy {
		s.queue.Park(p)
		return false
	}
	s.busy = true
	p.WakeAfter(s.service)
	return true
}

// Leave ends the operation in service and wakes the next one queued.
func (s *AtomicSite) Leave() {
	s.busy = false
	s.queue.Pulse()
}
