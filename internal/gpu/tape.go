package gpu

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// A task kernel has no clock, so its body runs ahead of its charges: each
// cost op appends (op, cycles or bytes) to a tape, and the warp blocks once
// per tape when the tape drains. The warp's Resume then replays the ops on
// the event loop, each op starting in the event where the previous one
// ended, the instant and queue slot at which the warp would have resumed to
// call it: a share's service is Share.AcquireThen and a latency
// Proc.WakeAfter, and the wake-up after the last op resumes the warp's Run.
// So a tape takes exactly the virtual time, and queues exactly the events,
// of charging its ops one by one; only the coroutine switches between them
// are gone.
//
// A tape drains at the task's SyncBlock, when the kernel returns (Task.Drain),
// and when it fills. Only the warp running its body records, so the tape
// being recorded hangs off the Device. A draining tape is held in a
// process-wide Slab, and the warp keeps its handle.

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

// The stages of a tape's replay: the op at pos has its issue slots next, a
// global access's share of device-memory bandwidth next, or its latency
// next. Stage zero is no replay.
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
// ends: it arms the first op's wait here and leaves the rest to the warp's
// Resume. The tape goes back to the slab when the warp resumes, or when
// Engine.Close unwinds it mid-replay.
func (c *Ctx) drain() {
	d, w := c.dev, c.w
	if d.rec == nil {
		return
	}
	w.tape, w.stage = d.recID, stageIssue
	d.rec = nil
	defer putTape(w.tape)
	w.replay()
	c.Proc().Await()
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

// replay arms the warp's wait for the next stage of the tape it is
// draining, falling through a stage with no work at once. The last op's
// last wait leaves the stage at zero, so its wake-up resumes the warp's
// Run. A recorded Compute always has cycles to issue and a memory op at
// least one transaction, so every call arms a wait.
func (w *warp) replay() {
	c, p := &w.ctx, &w.proc
	t := tapes.At(w.tape)
	op, arg := t.ops[t.pos], t.args[t.pos]
	switch w.stage {
	case stageIssue:
		if op == opCompute {
			w.endOp(t)
			c.tb.smm.issue.AcquireThen(p, arg)
			return
		}
		w.stage = stageMem
		if c.tb.smm.issue.AcquireThen(p, c.transactions(arg)) {
			return
		}
		fallthrough
	case stageMem:
		w.stage = stageLatency
		if (op == opGlobalRead || op == opGlobalWrite) && c.dev.membw.AcquireThen(p, arg) {
			return
		}
	}
	w.endOp(t)
	p.WakeAfter(c.latency(op))
}

// endOp moves the replay past the op at t.pos, whose last wait is being
// armed: to the next op's issue, or to stage zero after the tape's last op.
func (w *warp) endOp(t *tape) {
	if t.pos+1 == t.n {
		w.stage = 0
		return
	}
	t.pos++
	w.stage = stageIssue
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
