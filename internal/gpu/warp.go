package gpu

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Ctx is the per-warp device execution context handed to a KernelFunc. It
// plays the role of the CUDA built-ins (threadIdx/blockIdx/blockDim) plus the
// cost-charging API of the simulator.
//
// A kernel function runs warp-synchronously: it is invoked once per warp.
// Task kernels see the warp through a Task, which adds the task's own
// geometry and per-lane iteration.
type Ctx struct {
	dev  *Device
	smm  *SMM
	proc *sim.Proc

	BlockIdx    int // blockIdx.x
	BlockDim    int // blockDim.x (threads per block)
	WarpInBlock int // warp index within the block

	blockBar *Barrier
}

// Proc exposes the underlying simulation process (for runtime systems built
// on top of raw warps, e.g. Pagoda's MasterKernel).
func (c *Ctx) Proc() *sim.Proc { return c.proc }

// Now returns the current simulated time in cycles.
func (c *Ctx) Now() sim.Time { return c.dev.Eng.Now() }

// WarpSize returns the SIMT width (32).
func (c *Ctx) WarpSize() int { return c.dev.Cfg.ThreadsPerWarp }

// --- cost-charging operations ---

// Compute charges `cycles` of instruction issue under processor sharing with
// the other ready warps on this SMM.
func (c *Ctx) Compute(cycles float64) {
	c.smm.issue.Acquire(c.proc, cycles)
}

// transactions returns the number of coalesced memory transactions for a
// warp-wide access of n bytes.
func (c *Ctx) transactions(n int) float64 {
	cb := c.dev.Cfg.CoalesceBytes
	t := (n + cb - 1) / cb
	if t < 1 {
		t = 1
	}
	return float64(t)
}

// GlobalRead models a warp-wide coalesced read of n bytes from device
// memory: issue cost proportional to transactions, the bandwidth-shared
// transfer, then the memory latency with the warp descheduled (so other
// warps can hide it).
func (c *Ctx) GlobalRead(n int) { c.chain(opGlobalRead, n) }

// GlobalWrite models a warp-wide coalesced write of n bytes. Writes retire
// through the store queue: issue and bandwidth cost, plus a small depart
// latency.
func (c *Ctx) GlobalWrite(n int) { c.chain(opGlobalWrite, n) }

// SharedRead models a warp-wide shared-memory read of n bytes.
func (c *Ctx) SharedRead(n int) { c.chain(opSharedRead, n) }

// SharedWrite models a warp-wide shared-memory write of n bytes.
func (c *Ctx) SharedWrite(n int) { c.chain(opSharedWrite, n) }

// The memory ops above block the warp once (sim.Proc.Chain) and run their
// stages on the event loop, in warp.Step: the issue slots, then a global
// access's share of device-memory bandwidth, then the op's latency. Each
// stage starts in the event where the previous one was served, the instant
// and queue slot at which the warp would have resumed to start it, so the
// chain takes exactly the virtual time of charging the stages one by one. A
// chain's stage is its op plus the phase it has reached.
const (
	opGlobalRead uint8 = iota + 1
	opGlobalWrite
	opSharedRead
	opSharedWrite

	opMask = 0x0f
	// phaseMem: issue is served; a global access's transfer is next.
	phaseMem = 0x10
	// phaseLatency: all service is done; the latency is next.
	phaseLatency = 0x20
)

// chain blocks the warp for a memory op on n bytes. A negative n moves no
// bytes, as a zero one does.
func (c *Ctx) chain(op uint8, n int) {
	bytes := uint64(max(n, 0))
	if bytes > math.MaxUint32 {
		panic(fmt.Sprintf("gpu: warp access of %d bytes exceeds 4 GiB", n))
	}
	c.proc.Chain(op, uint32(bytes))
}

// Step runs the next stage of the memory op the warp is blocked in. A stage
// with no work falls through to the next one at once.
func (w *warp) Step(uint64) {
	c, p := &w.ctx, &w.proc
	stage, n := p.Stage()
	op := stage & opMask
	switch stage &^ opMask {
	case 0:
		if c.smm.issue.Chain(p, c.transactions(int(n)), op|phaseMem) {
			return
		}
		fallthrough
	case phaseMem:
		if (op == opGlobalRead || op == opGlobalWrite) && c.dev.membw.Chain(p, float64(n), op|phaseLatency) {
			return
		}
	}
	p.ResumeAfter(c.latency(op))
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

// AtomicShared performs one shared-memory atomic through the given site,
// serializing with other warps using the same site.
func (c *Ctx) AtomicShared(site *AtomicSite) {
	c.Compute(1)
	site.Do(c.proc)
}

// AtomicGlobal performs one global-memory atomic through the given site.
func (c *Ctx) AtomicGlobal(site *AtomicSite) {
	c.Compute(1)
	site.Do(c.proc)
}

// Threadfence charges the cost of __threadfence() (device-wide visibility).
func (c *Ctx) Threadfence() {
	c.Compute(1)
	c.proc.Sleep(c.dev.Cfg.FenceCost)
}

// ThreadfenceBlock charges the cost of __threadfence_block().
func (c *Ctx) ThreadfenceBlock() {
	c.Compute(1)
	c.proc.Sleep(c.dev.Cfg.FenceBlockCost)
}

// SyncBlock is __syncthreads(): synchronizes all warps of the CUDA
// threadblock. Panics when used from a runtime (like Pagoda's MasterKernel)
// whose blocks must not block-sync; such runtimes provide their own
// sub-threadblock barriers.
func (c *Ctx) SyncBlock() {
	if c.blockBar == nil {
		if c.BlockDim <= c.dev.Cfg.ThreadsPerWarp {
			return // single-warp block: lockstep already synchronizes
		}
		panic("gpu: SyncBlock on a block without a barrier")
	}
	c.Compute(c.dev.Cfg.BarrierCost)
	c.blockBar.Arrive(c.proc)
}

// NamedBarrier synchronizes on an explicitly managed barrier (PTX bar.sync
// with a barrier ID), used by Pagoda's sub-threadblock synchronization.
func (c *Ctx) NamedBarrier(b *Barrier) {
	c.Compute(c.dev.Cfg.BarrierCost)
	b.Arrive(c.proc)
}

// WarpVoteAll models the _all() warp vote: lockstep lanes need only a couple
// of cycles.
func (c *Ctx) WarpVoteAll() { c.Compute(2) }

// Sleep parks the warp for the given number of cycles without consuming
// issue bandwidth (used for modelled waits such as poll back-off).
func (c *Ctx) Sleep(cycles float64) { c.proc.Sleep(cycles) }
