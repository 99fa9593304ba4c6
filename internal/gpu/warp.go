package gpu

import "repro/internal/sim"

// Ctx is the per-warp device execution context handed to a KernelFunc. It
// plays the role of the CUDA built-ins (threadIdx/blockIdx/blockDim) plus the
// cost-charging API of the simulator.
//
// A kernel function runs warp-synchronously: it is invoked once per warp.
// Task kernels see the warp through a Task, which adds the task's own
// geometry and per-lane iteration; the warp owns the one every scheme binds.
type Ctx struct {
	dev *Device
	// w is the warp the Ctx belongs to (the next free one while the warp
	// is free), and tb its threadblock, which names its SMM and barrier.
	w  *warp
	tb *threadBlock

	BlockIdx    int // blockIdx.x
	BlockDim    int // blockDim.x (threads per block)
	WarpInBlock int // warp index within the block

	task Task
}

// Proc exposes the underlying simulation process (for runtime systems built
// on top of raw warps, e.g. Pagoda's MasterKernel).
func (c *Ctx) Proc() *sim.Proc { return &c.w.proc }

// Task returns the warp's own Task, for a scheme to bind to each task the
// warp runs. It is unbound until then.
func (c *Ctx) Task() *Task { return &c.task }

// Now returns the current simulated time in cycles.
func (c *Ctx) Now() sim.Time { return c.dev.Eng.Now() }

// WarpSize returns the SIMT width (32).
func (c *Ctx) WarpSize() int { return c.dev.Cfg.ThreadsPerWarp }

// --- cost-charging operations ---
//
// Each memory op is a one-entry tape (tape.go), drained at once.

// Compute charges `cycles` of instruction issue under processor sharing with
// the other ready warps on this SMM.
func (c *Ctx) Compute(cycles float64) {
	if c.ComputeThen(cycles) {
		c.Proc().Await()
	}
}

// ComputeThen is Compute's non-blocking half, for LaunchSpec.Resume: it queues
// `cycles` of issue and arms the warp's wake-up for when they are served. It
// reports false, arming nothing, when there is nothing to issue.
func (c *Ctx) ComputeThen(cycles float64) bool {
	c.assertDrained()
	return issues(cycles) && c.tb.smm.issue.AcquireThen(c.Proc(), cycles)
}

// GlobalRead models a warp-wide coalesced read of n bytes from device
// memory: issue cost proportional to transactions, the bandwidth-shared
// transfer, then the memory latency with the warp descheduled (so other
// warps can hide it).
func (c *Ctx) GlobalRead(n int) { c.chargeMem(opGlobalRead, n) }

// GlobalWrite models a warp-wide coalesced write of n bytes. Writes retire
// through the store queue: issue and bandwidth cost, plus a small depart
// latency.
func (c *Ctx) GlobalWrite(n int) { c.chargeMem(opGlobalWrite, n) }

// SharedRead models a warp-wide shared-memory read of n bytes.
func (c *Ctx) SharedRead(n int) { c.chargeMem(opSharedRead, n) }

// SharedWrite models a warp-wide shared-memory write of n bytes.
func (c *Ctx) SharedWrite(n int) { c.chargeMem(opSharedWrite, n) }

func (c *Ctx) chargeMem(op uint8, n int) {
	c.assertDrained()
	c.recordMem(op, n)
	c.drain()
}

// AtomicShared performs one shared-memory atomic through the given site,
// serializing with other warps using the same site.
func (c *Ctx) AtomicShared(site *AtomicSite) {
	c.Compute(1)
	site.Do(c.Proc())
}

// Threadfence charges the cost of __threadfence() (device-wide visibility).
func (c *Ctx) Threadfence() {
	c.Compute(1)
	c.Proc().Sleep(c.dev.Cfg.FenceCost)
}

// ThreadfenceBlock charges the cost of __threadfence_block().
func (c *Ctx) ThreadfenceBlock() {
	c.Compute(1)
	c.Proc().Sleep(c.dev.Cfg.FenceBlockCost)
}

// SyncIssueThen and SyncArriveThen are __syncthreads() as two
// non-blocking halves, for LaunchSpec.Resume: issuing the bar.sync, then
// arriving at the threadblock's barrier. Each arms the warp's wake-up and
// reports true when it has to wait. A single-warp block runs in lockstep
// and has no barrier, so both are free there.
func (c *Ctx) SyncIssueThen() bool {
	return c.blockBar() != nil && c.ComputeThen(c.dev.Cfg.BarrierCost)
}

func (c *Ctx) SyncArriveThen() bool {
	b := c.blockBar()
	return b != nil && b.arrive(c.Proc())
}

// blockBar returns the threadblock's __syncthreads() barrier, or nil for a
// block of one warp.
func (c *Ctx) blockBar() *Barrier {
	if c.BlockDim <= c.dev.Cfg.ThreadsPerWarp {
		return nil
	}
	return &c.tb.barrier
}

// WarpVoteAll models the _all() warp vote: lockstep lanes need only a couple
// of cycles.
func (c *Ctx) WarpVoteAll() { c.Compute(2) }

// Sleep parks the warp for the given number of cycles without consuming
// issue bandwidth (used for modelled waits such as poll back-off).
func (c *Ctx) Sleep(cycles float64) {
	c.assertDrained()
	c.Proc().Sleep(cycles)
}
