package serve

import "repro/internal/sim"

// The admission policies below decide, at a task's arrival instant, whether
// to admit it: Admit(now, inFlight), where inFlight is the number of admitted
// tasks not yet completed (the system's current backlog as the submitter
// knows it). Policies may keep state (the token bucket does); a fresh policy
// must be constructed per run.
//
// Without admission control an open-loop system past saturation queues
// without bound and every latency percentile diverges; these policies are
// how overload degrades into bounded latency plus explicit drops instead.

// Unbounded admits everything — the pure open-loop measurement mode, where
// past-saturation behavior shows up as unbounded queueing delay.
type Unbounded struct{}

// Admit reports whether to admit a task arriving at now.
func (Unbounded) Admit(sim.Time, int) bool { return true }

// BoundedQueue admits a task only while fewer than Limit admitted tasks are
// in flight; beyond that arrivals are rejected (load shedding at the door).
type BoundedQueue struct {
	Limit int
}

// Admit reports whether to admit a task arriving at now.
func (p BoundedQueue) Admit(_ sim.Time, inFlight int) bool { return inFlight < p.Limit }

// TokenBucket admits at a sustained Rate (tokens/second) with burst capacity
// Burst: each admission spends a token, tokens refill continuously in
// virtual time. It shapes offered load to a contract independent of the
// backlog signal BoundedQueue uses.
type TokenBucket struct {
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   sim.Time
}

// NewTokenBucket returns a full bucket. rate must be positive; burst is
// clamped to at least one token so a drained system can always admit.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	checkRate(rate)
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}
}

// Admit reports whether to admit a task arriving at now.
func (p *TokenBucket) Admit(now sim.Time, _ int) bool {
	p.tokens += (now - p.last) * p.rate / cyclesPerSecond
	if p.tokens > p.burst {
		p.tokens = p.burst
	}
	p.last = now
	if p.tokens < 1 {
		return false
	}
	p.tokens--
	return true
}
