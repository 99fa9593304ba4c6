// Package serve is the open-loop serving layer over the discrete-event
// stack: it generates timed task arrivals, accounts per-task latency exactly
// (sorted order statistics, never sketches — results stay bit-deterministic),
// applies admission control, and locates each execution scheme's maximum
// sustainable task rate under a tail-latency SLO.
//
// The package deliberately sits *above* the runners: it knows nothing about
// Pagoda, HyperQ or GeMTC. Generators produce arrival timestamps in virtual
// cycles, policies decide admission from (virtual time, in-flight count), and
// Summarize folds the per-task Records a timed runner returns into tail
// statistics. internal/runners provides the timed-submission path
// (Scheme.RunOpenLoop, a one-node fleet, and Scheme.RunCluster) that
// consumes arrivals and produces Records;
// internal/harness wires both into the serve_latency and serve_capacity
// experiments.
//
// Everything here is deterministic by construction: pseudo-randomness comes
// only from an explicitly seeded xorshift PRNG (the randsource rule), and no
// wall-clock, map iteration or goroutines are involved.
package serve

import "repro/internal/sim"

// Record is one task's life under open-loop serving, in virtual cycles.
// Submit is the arrival instant of the open-loop process (work arrives
// whether or not the system is ready); Start is when the scheme actually
// began serving the task (Pagoda: scheduled onto a warp; HyperQ: kernel
// dispatched; GeMTC: SuperKernel batch launched); Done is completion as the
// scheme defines it (GeMTC: the whole batch's end, its Fig. 10 property).
// A Dropped record was rejected by admission control and has zero
// Start/Done.
type Record struct {
	Submit  sim.Time
	Start   sim.Time
	Done    sim.Time
	Dropped bool
}

// Wait returns the queueing delay: arrival to service start.
func (r Record) Wait() sim.Time { return r.Start - r.Submit }

// Service returns the in-service time: start to completion.
func (r Record) Service() sim.Time { return r.Done - r.Start }

// Latency returns the full submit-to-complete latency.
func (r Record) Latency() sim.Time { return r.Done - r.Submit }

// xorshift is the package's seeded deterministic PRNG (the same generator
// workloads uses for input-size draws), so arrival sequences are identical
// across Go versions and runs.
type xorshift uint64

func newRand(seed int64) *xorshift {
	x := xorshift(uint64(seed)*2685821657736338717 + 0x9E3779B97F4A7C15)
	if x == 0 {
		x = 0x2545F4914F6CDD1D
	}
	return &x
}

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// float01 returns a float in [0,1).
func (x *xorshift) float01() float64 { return float64(x.next()>>11) / (1 << 53) }
