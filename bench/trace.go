package main

import (
	"encoding/json"
	"os"
	"time"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// span is one timed region of the benchmark's own code, mostly around a
// call into a layer: workload > verify|setup|round > cell > {make,
// arrivals, merge, run, summarize, conservation}. Times are host
// nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // duration minus the children's durations
}

// tracer keeps every span in memory; spans cost a clock read each, so they
// are recorded in untraced runs too and written out only by traced ones.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(parent int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name,
		Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

// end closes span id and returns its duration in nanoseconds.
func (t *tracer) end(id int) int64 {
	s := &t.spans[id]
	s.End = time.Since(t.t0).Nanoseconds()
	return s.End - s.Start
}

// span runs fn inside a new child of parent and returns its duration in
// nanoseconds.
func (t *tracer) span(parent int, name string, fn func()) int64 {
	id := t.begin(parent, name)
	fn()
	return t.end(id)
}

// sumChildren totals the durations of parent's children called name.
func (t *tracer) sumChildren(parent int, name string) int64 {
	var sum int64
	for _, s := range t.spans {
		if s.Parent == parent && s.Name == name {
			sum += s.End - s.Start
		}
	}
	return sum
}

// write stores every span, with its self time, as one JSON array.
func (t *tracer) write(path string) error {
	out := append([]span(nil), t.spans...)
	for i := range out {
		out[i].Self = out[i].End - out[i].Start
	}
	for _, s := range out {
		if s.Parent >= 0 {
			out[s.Parent].Self -= s.End - s.Start
		}
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// counters are the traced round's call counts at the layer boundaries the
// benchmark can wrap from outside. Every wrapped call runs under the
// engine's baton, so plain fields need no locking. A nil *counters is an
// untraced round: its wrap methods hand back the original value.
type counters struct {
	kernelCalls, costOps     int64 // workloads: TaskDef.Kernel and DeviceCtx cost ops
	admitCalls, admitRejects int64 // serve: Admit/AdmitTask decisions
	admitTaskNs              int64 // tenancy: host ns inside AdmitTask
	pickCalls, pickNs        int64 // cluster: Policy.Pick
	targetCalls, targetNs    int64 // autoscale: Policy.Target
}

// tasks returns a copy of ts whose kernels count their calls and cost ops
// and forward everything else unchanged.
func (c *counters) tasks(ts []workloads.TaskDef) []workloads.TaskDef {
	if c == nil {
		return ts
	}
	out := append([]workloads.TaskDef(nil), ts...)
	for i := range out {
		k := out[i].Kernel
		out[i].Kernel = func(d workloads.DeviceCtx) {
			c.kernelCalls++
			k(&countingCtx{DeviceCtx: d, c: c})
		}
	}
	return out
}

// countingCtx forwards a DeviceCtx, counting the five cost-charging calls.
type countingCtx struct {
	workloads.DeviceCtx
	c *counters
}

func (x *countingCtx) Compute(cycles float64) { x.c.costOps++; x.DeviceCtx.Compute(cycles) }
func (x *countingCtx) GlobalRead(bytes int)   { x.c.costOps++; x.DeviceCtx.GlobalRead(bytes) }
func (x *countingCtx) GlobalWrite(bytes int)  { x.c.costOps++; x.DeviceCtx.GlobalWrite(bytes) }
func (x *countingCtx) SharedRead(bytes int)   { x.c.costOps++; x.DeviceCtx.SharedRead(bytes) }
func (x *countingCtx) SharedWrite(bytes int)  { x.c.costOps++; x.DeviceCtx.SharedWrite(bytes) }

func (c *counters) admit(f func(sim.Time, int) bool) func(sim.Time, int) bool {
	if c == nil {
		return f
	}
	return func(now sim.Time, inFlight int) bool {
		c.admitCalls++
		ok := f(now, inFlight)
		if !ok {
			c.admitRejects++
		}
		return ok
	}
}

// admitTask wraps a class-aware admission decision. It never yields the
// baton, so the wall time around it is its own.
func (c *counters) admitTask(f func(int, sim.Time, int) bool) func(int, sim.Time, int) bool {
	if c == nil {
		return f
	}
	return func(ti int, now sim.Time, inFlight int) bool {
		c.admitCalls++
		t0 := time.Now()
		ok := f(ti, now, inFlight)
		c.admitTaskNs += time.Since(t0).Nanoseconds()
		if !ok {
			c.admitRejects++
		}
		return ok
	}
}

func (c *counters) policy(p cluster.Policy) cluster.Policy {
	if c == nil {
		return p
	}
	return countingPolicy{Policy: p, c: c}
}

type countingPolicy struct {
	cluster.Policy
	c *counters
}

func (p countingPolicy) Pick(now sim.Time, t cluster.Task, nodes []cluster.NodeView) int {
	p.c.pickCalls++
	t0 := time.Now()
	n := p.Policy.Pick(now, t, nodes)
	p.c.pickNs += time.Since(t0).Nanoseconds()
	return n
}

func (c *counters) scaler(mk func() autoscale.Policy) func() autoscale.Policy {
	if c == nil {
		return mk
	}
	return func() autoscale.Policy { return countingScaler{Policy: mk(), c: c} }
}

type countingScaler struct {
	autoscale.Policy
	c *counters
}

func (p countingScaler) Target(s autoscale.Signals) int {
	p.c.targetCalls++
	t0 := time.Now()
	n := p.Policy.Target(s)
	p.c.targetNs += time.Since(t0).Nanoseconds()
	return n
}
