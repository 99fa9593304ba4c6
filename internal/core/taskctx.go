package core

import "repro/internal/gpu"

// TaskCtx is the device-side API visible to a Pagoda task kernel (the GPU
// rows of Table 1). A task kernel is invoked once per executor warp assigned
// to it; lane-level code runs through ForEachLane, whose argument is getTid().
// A TaskCtx is valid only for the duration of the kernel call: each executor
// warp slot reuses one for every task it runs, so a kernel that keeps the
// pointer (in a scheduled closure, a map, ...) later sees another task.
type TaskCtx struct {
	gc    *gpu.Ctx
	mtb   *MTB
	entry *deviceEntry

	warpID   int // warp index within the whole task
	barID    int
	smOffset int
	smSize   int
}

// Args returns the kernel arguments passed to TaskSpawn.
func (t *TaskCtx) Args() any { return t.entry.spec.Args }

// Threads returns the threads per threadblock of this task.
func (t *TaskCtx) Threads() int { return t.entry.spec.Threads }

// Blocks returns the task's threadblock count.
func (t *TaskCtx) Blocks() int { return t.entry.spec.Blocks }

// warpsPerTB returns warps per threadblock.
func (t *TaskCtx) warpsPerTB() int { return t.entry.spec.warpsPerTB(t.gc.WarpSize()) }

// BlockIdx returns which of the task's threadblocks this warp belongs to.
func (t *TaskCtx) BlockIdx() int { return t.warpID / t.warpsPerTB() }

// WarpInBlock returns this warp's index within its threadblock.
func (t *TaskCtx) WarpInBlock() int { return t.warpID % t.warpsPerTB() }

// ActiveLanes returns how many lanes of this warp map to threads (the last
// warp of a threadblock may be partial).
func (t *TaskCtx) ActiveLanes() int {
	remaining := t.entry.spec.Threads - t.WarpInBlock()*t.gc.WarpSize()
	if remaining >= t.gc.WarpSize() {
		return t.gc.WarpSize()
	}
	if remaining < 0 {
		return 0
	}
	return remaining
}

// ForEachLane invokes fn once per active lane with that lane's getTid()
// value — the thread ID within the threadblock, as in the paper's kernels.
func (t *TaskCtx) ForEachLane(fn func(tid int)) {
	base := t.WarpInBlock() * t.gc.WarpSize()
	for l := 0; l < t.ActiveLanes(); l++ {
		fn(base + l)
	}
}

// SyncBlock is the Table 1 syncBlock(): a sub-threadblock barrier over this
// task's threadblock, implemented with a PTX named barrier (§5.2). Tasks
// must set TaskSpec.Sync to use it.
func (t *TaskCtx) SyncBlock() {
	if t.warpsPerTB() <= 1 {
		return // a single warp runs in lockstep
	}
	if t.barID < 0 {
		panic("core: SyncBlock on a task spawned without the sync flag")
	}
	t.gc.NamedBarrier(t.mtb.bars[t.barID])
}

// Shared is getSMPtr(): the threadblock's slice of the MTB's shared-memory
// arena ("32-byte aligned char pointer"). It panics when the task requested
// no shared memory.
func (t *TaskCtx) Shared() []byte {
	if t.smSize == 0 {
		panic("core: Shared() on a task spawned without shared memory")
	}
	m := t.mtb
	if m.arena == nil {
		m.arena = make([]byte, m.rt.Cfg.SharedPerMTB)
	}
	return m.arena[t.smOffset : t.smOffset+t.smSize]
}

// HasShared reports whether the task was spawned with shared memory.
func (t *TaskCtx) HasShared() bool { return t.smSize > 0 }

// --- cost-charging pass-throughs to the warp context ---

// Compute charges issue cycles under processor sharing.
func (t *TaskCtx) Compute(cycles float64) { t.gc.Compute(cycles) }

// GlobalRead models a warp-wide coalesced device-memory read of n bytes.
func (t *TaskCtx) GlobalRead(n int) { t.gc.GlobalRead(n) }

// GlobalWrite models a warp-wide coalesced device-memory write of n bytes.
func (t *TaskCtx) GlobalWrite(n int) { t.gc.GlobalWrite(n) }

// SharedRead models a shared-memory read of n bytes.
func (t *TaskCtx) SharedRead(n int) { t.gc.SharedRead(n) }

// SharedWrite models a shared-memory write of n bytes.
func (t *TaskCtx) SharedWrite(n int) { t.gc.SharedWrite(n) }

// WarpCtx exposes the raw warp context (diagnostics, advanced workloads).
func (t *TaskCtx) WarpCtx() *gpu.Ctx { return t.gc }
