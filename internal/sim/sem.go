package sim

// Sem is a counting semaphore for simulation processes with FIFO fairness.
type Sem struct {
	avail int
	sig   Signal
}

// NewSem returns a semaphore with n initial permits.
func NewSem(n int) *Sem {
	if n < 0 {
		panic("sim: negative semaphore count")
	}
	return &Sem{avail: n}
}

// Acquire blocks p until a permit is available, then takes it.
func (s *Sem) Acquire(p *Proc) {
	for s.avail == 0 {
		s.sig.Wait(p)
	}
	s.avail--
}

// Release returns a permit and wakes one waiter.
func (s *Sem) Release() {
	s.avail++
	s.sig.Pulse()
}
