package gpu

import "repro/internal/sim"

// Barrier is a reusable rendezvous for a fixed number of warps, modelling
// both __syncthreads() (one barrier per threadblock) and PTX named barriers
// (bar.sync with an ID, as used by Pagoda's syncBlock()). Reuse across
// generations is safe: a generation counter prevents a fast warp from racing
// through two phases while a slow one is still waking.
//
// The zero Barrier has no participants; Reset sets its count.
type Barrier struct {
	need    int
	arrived int
	gen     uint64
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
	b.arrived++
	if b.arrived == b.need {
		b.arrived = 0
		b.gen++
		b.sig.Broadcast()
		return
	}
	if b.arrived == 1 {
		// The first arrival of a generation sizes the waiter list once for
		// the barrier's lifetime; later generations reuse it.
		b.sig.Grow(b.need - 1)
	}
	gen := b.gen
	for b.gen == gen {
		b.sig.Wait(p)
	}
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
	for s.busy {
		s.queue.Wait(p)
	}
	s.busy = true
	p.Sleep(s.service)
	s.busy = false
	s.queue.Pulse()
}
