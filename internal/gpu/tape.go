package gpu

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// A task kernel has no clock, so its body runs ahead of its charges: each
// cost op appends (op, cycles or bytes) to a tape, and the warp blocks once
// per tape, with one sim.Proc.Chain, when the tape drains. warp.Step then
// replays the ops on the event loop, each op starting in the event where
// the previous one ended, the instant and queue slot at which the warp
// would have resumed to call it. So a tape takes exactly the virtual time,
// and queues exactly the events, of charging its ops one by one; only the
// coroutine switches between them are gone.
//
// A tape drains at the task's SyncBlock, when the kernel returns (Task.Drain),
// and when it fills. Only the warp running its body records, so the tape
// being recorded hangs off the Device. A draining tape is held in a
// process-wide Slab, and its handle rides in the chain's operand.

// tapeCap is the most ops a tape holds; a full tape drains early, which
// charges exactly what a later drain would.
const tapeCap = 64

// tape is one warp's recorded cost ops.
type tape struct {
	n, pos uint8 // ops recorded; the op being replayed
	ops    [tapeCap]uint8
	args   [tapeCap]float64 // cycles for opCompute, bytes otherwise
}

// tapes holds every recorded or draining tape.
var tapes sim.Slab[tape]

// The ops a tape records.
const (
	opCompute uint8 = iota
	opGlobalRead
	opGlobalWrite
	opSharedRead
	opSharedWrite
)

// The stages of a tape's chain: the op at pos has its issue slots next, a
// global access's share of device-memory bandwidth next, or its latency
// next.
const (
	stageIssue uint8 = iota + 1
	stageMem
	stageLatency
)

// record appends one op to the device's tape, draining it when full.
func (c *Ctx) record(op uint8, arg float64) {
	d := c.dev
	t := d.rec
	if t == nil {
		d.recID, t = tapes.Get()
		d.rec = t
	}
	t.ops[t.n], t.args[t.n] = op, arg
	if t.n++; t.n == tapeCap {
		c.drain()
	}
}

// recordCompute records Compute(cycles).
func (c *Ctx) recordCompute(cycles float64) {
	if issues(cycles) {
		c.record(opCompute, cycles)
	}
}

// issues reports whether Compute(cycles) has any issue to charge: cycles
// <= 0 charges nothing, as an Acquire of no work returns at once. NaN cycles
// panic: a request that can never be served would stall the issue share's
// timer at a NaN instant.
func issues(cycles float64) bool {
	if math.IsNaN(cycles) {
		panic("gpu: Compute of NaN cycles")
	}
	return cycles > 0
}

// recordMem records a memory op on n bytes. A negative n moves no bytes, as
// a zero one does.
func (c *Ctx) recordMem(op uint8, n int) {
	bytes := max(n, 0)
	if uint64(bytes) > math.MaxUint32 {
		panic(fmt.Sprintf("gpu: warp access of %d bytes exceeds 4 GiB", n))
	}
	c.record(op, float64(bytes))
}

// drain charges the recorded tape, blocking the warp until its last op
// ends. The tape goes back to the slab when the warp resumes, or when
// Engine.Close unwinds it mid-replay.
func (c *Ctx) drain() {
	d := c.dev
	if d.rec == nil {
		return
	}
	id := d.recID
	d.rec = nil
	defer putTape(id)
	c.Proc().Chain(stageIssue, id)
}

// putTape empties a tape and returns it to the slab.
func putTape(id uint32) {
	t := tapes.At(id)
	t.n, t.pos = 0, 0
	tapes.Put(id)
}

// assertDrained panics unless the device's tape is empty. Every Ctx op
// that charges checks it: runtime code runs between task kernels, so a tape
// left undrained means a missed Task.Drain, which would reorder the run.
func (c *Ctx) assertDrained() {
	if c.dev.rec != nil {
		panic("gpu: Ctx op while a task's tape is undrained (missing Task.Drain?)")
	}
}

// Step runs the next stage of the tape the warp is draining. A stage with
// no work falls through to the next one at once.
func (w *warp) Step(uint64) {
	c, p := &w.ctx, &w.proc
	stage, id := p.Stage()
	t := tapes.At(id)
	op, arg := t.ops[t.pos], t.args[t.pos]
	last := t.pos+1 == t.n
	switch stage {
	case stageIssue:
		if op == opCompute {
			if last {
				c.tb.smm.issue.ChainEnd(p, arg)
				return
			}
			t.pos++
			c.tb.smm.issue.Chain(p, arg, stageIssue)
			return
		}
		if c.tb.smm.issue.Chain(p, c.transactions(arg), stageMem) {
			return
		}
		fallthrough
	case stageMem:
		if (op == opGlobalRead || op == opGlobalWrite) && c.dev.membw.Chain(p, arg, stageLatency) {
			return
		}
	}
	lat := c.latency(op)
	if last {
		p.ResumeAfter(lat)
		return
	}
	t.pos++
	p.StepAfter(lat, stageIssue)
}

// transactions returns the number of coalesced memory transactions for a
// warp-wide access of n bytes.
func (c *Ctx) transactions(n float64) float64 {
	cb := c.dev.Cfg.CoalesceBytes
	return float64(max((int(n)+cb-1)/cb, 1))
}

// latency is how long a memory op keeps the warp descheduled once served.
func (c *Ctx) latency(op uint8) sim.Time {
	cfg := &c.dev.Cfg
	switch op {
	case opGlobalRead:
		return cfg.GlobalLatency
	case opGlobalWrite:
		return cfg.GlobalLatency / 8
	case opSharedRead:
		return cfg.SharedLatency
	default:
		return cfg.SharedLatency / 2
	}
}
