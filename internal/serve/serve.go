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
// (Scheme.RunCluster, and Scheme.RunOpenLoop as a one-node fleet) that
// consumes arrivals and produces Records; internal/harness runs every
// timed-arrival experiment through RunCluster.
//
// Everything here is deterministic by construction: pseudo-randomness comes
// only from an explicitly seeded prng.Xorshift (the randsource rule), and no
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
