package sim

// Signal is a Mesa-style condition variable for simulation processes.
// Waiters must re-check their predicate in a loop:
//
//	for !cond() {
//	    sig.Wait(p)
//	}
//
// Broadcast and Pulse deliver wake-ups through zero-delay events, so the
// relative order of resumed processes follows the order in which they began
// waiting (FIFO) and is deterministic.
//
// A lone waiter is held inline, and the queue behind it keeps its backing
// array across wakes, so steady-state waiting does not allocate. Waking in
// place is safe because Proc.Wakeup only queues an event: no body runs, and
// so no one can Wait, until the waking call has returned.
type Signal struct {
	// first, when set, is the longest-waiting process and the rest wait in
	// more; a Wait fills first only while more is empty, keeping FIFO order.
	first *Proc
	more  FIFO[*Proc]
}

// Wait parks p until the signal is pulsed or broadcast. Spurious wake-ups do
// not occur, but because other waiters may run first, predicates must be
// re-checked.
func (s *Signal) Wait(p *Proc) {
	s.Park(p)
	p.Await()
}

// Park is Wait's non-blocking half: it queues p and arms its wake-up for
// the Pulse or Broadcast that reaches it.
func (s *Signal) Park(p *Proc) {
	s.enqueue(p)
	p.park()
}

// enqueue appends p to the waiters.
func (s *Signal) enqueue(p *Proc) {
	if s.first == nil && s.more.Len() == 0 {
		s.first = p
	} else {
		s.more.Push(p)
	}
}

// Grow makes room for n more waiters without reallocating, so a caller that
// knows its rendezvous size (a barrier) pays one allocation for it instead of
// a doubling series.
func (s *Signal) Grow(n int) {
	if s.first == nil && s.more.Len() == 0 {
		n-- // the next waiter is held inline
	}
	if n > 0 {
		s.more.Grow(n)
	}
}

// Broadcast wakes every current waiter. Processes that start waiting after
// the call are not affected.
func (s *Signal) Broadcast() {
	if s.first != nil {
		s.first.Wakeup()
		s.first = nil
	}
	for _, p := range s.more.Items() {
		p.Wakeup()
	}
	s.more.Clear()
}

// Pulse wakes the longest-waiting process, if any. It reports whether a
// process was woken.
func (s *Signal) Pulse() bool {
	switch {
	case s.first != nil:
		s.first.Wakeup()
		s.first = nil
	case s.more.Len() > 0:
		s.more.Pop().Wakeup()
	default:
		return false
	}
	return true
}

// Waiting returns the number of parked processes.
func (s *Signal) Waiting() int {
	n := s.more.Len()
	if s.first != nil {
		n++
	}
	return n
}
