package gpu

// Task is a narrow task's view of the physical warp that runs it: the
// device-side contract of the paper's Table 1 (getTid through ForEachLane,
// syncBlock, getSMPtr through Shared) plus the cost ops it is charged,
// however the task was scheduled. The task's geometry may differ from the
// physical launch: a fused or GeMTC subtask is a one-block task on physical
// block b, and a Pagoda task runs on executor warps of a MasterKernel
// threadblock. Each warp owns one (Ctx.Task), rebound for every task the
// warp runs, so a kernel that keeps the pointer past its own call later
// sees another task, or another kernel's once the warp is reused.
type Task struct {
	c    *Ctx
	args any
	// bar is the task threadblock's barrier: the physical block barrier for
	// Bind, a named barrier for BindWarp. Nil forbids SyncBlock on a block
	// of more than one warp.
	bar *Barrier

	// shared is the block's shared memory, carved from *arena on the first
	// Shared() after UseArena.
	shared                  []byte
	arena                   *[]byte
	arenaLen, smOff, smSize int32

	blocks, blockIdx     int32
	threads, warpInBlock int16 // threads ≤ MaxThreadsPerTB
}

// Bind makes t the task whose threadblock is warp c's whole physical
// threadblock (HyperQ, GeMTC and fused kernels): c.BlockDim threads per
// block, blocks blocks of which c serves blockIdx, and c's __syncthreads()
// barrier. The task has no shared memory until UseArena.
func (t *Task) Bind(c *Ctx, blocks, blockIdx int) {
	*t = Task{
		c: c, bar: c.blockBar(),
		blocks: int32(blocks), blockIdx: int32(blockIdx),
		threads: int16(c.BlockDim), warpInBlock: int16(c.WarpInBlock),
	}
}

// BindWarp makes t warp warpID, counted across the whole task, of a task that
// a runtime packs onto warps of its own (Pagoda's executor warps): threads
// per block, blocks blocks, bar as the block's barrier and args as the
// kernel arguments. The task has no shared memory until UseArena.
func (t *Task) BindWarp(c *Ctx, threads, blocks, warpID int, bar *Barrier, args any) {
	wpt := (threads + c.dev.Cfg.ThreadsPerWarp - 1) / c.dev.Cfg.ThreadsPerWarp
	*t = Task{
		c: c, args: args, bar: bar,
		blocks: int32(blocks), blockIdx: int32(warpID / wpt),
		threads: int16(threads), warpInBlock: int16(warpID % wpt),
	}
}

// UseArena gives the task bytes [off, off+size) of the n-byte arena *arena
// as its shared memory. The arena is allocated zeroed on the first Shared()
// of any task that uses it, so a runtime that reserves one per threadblock
// pays only for those whose tasks touch shared memory.
func (t *Task) UseArena(arena *[]byte, n, off, size int) {
	t.arena, t.arenaLen, t.smOff, t.smSize = arena, int32(n), int32(off), int32(size)
}

// The task's geometry: threads per threadblock, threadblocks, the block this
// warp serves and its warp index within that block; and its kernel args.
func (t *Task) Threads() int     { return int(t.threads) }
func (t *Task) Blocks() int      { return int(t.blocks) }
func (t *Task) BlockIdx() int    { return int(t.blockIdx) }
func (t *Task) WarpInBlock() int { return int(t.warpInBlock) }
func (t *Task) Args() any        { return t.args }

// ForEachLane invokes fn once per lane that maps to a thread (the last warp
// of a block may be partial) with that lane's getTid(): the thread ID within
// the task's threadblock. It charges no simulated time.
func (t *Task) ForEachLane(fn func(tid int)) {
	ws := t.c.dev.Cfg.ThreadsPerWarp
	base := int(t.warpInBlock) * ws
	end := min(base+ws, int(t.threads))
	for tid := base; tid < end; tid++ {
		fn(tid)
	}
}

// The cost ops charge the warp that runs the task, as the Ctx ops of the
// same names do, but are recorded on the warp's tape (tape.go) rather than
// charged as they are called: the kernel body runs ahead of its charges.
func (t *Task) Compute(cycles float64) { t.c.recordCompute(cycles) }
func (t *Task) GlobalRead(n int)       { t.c.recordMem(opGlobalRead, n) }
func (t *Task) GlobalWrite(n int)      { t.c.recordMem(opGlobalWrite, n) }
func (t *Task) SharedRead(n int)       { t.c.recordMem(opSharedRead, n) }
func (t *Task) SharedWrite(n int)      { t.c.recordMem(opSharedWrite, n) }

// Drain charges every cost op the task has recorded, blocking the warp until
// they are served. A runtime calls it when the task kernel returns, and
// before it counts a kernel that panicked.
func (t *Task) Drain() { t.c.drain() }

// SyncBlock is syncBlock(): a barrier over the task's threadblock, costing
// what a bar.sync arrival costs. A block of one warp runs in lockstep, so it
// is free there; a multi-warp task bound without a barrier (a Pagoda task
// spawned without the sync flag) panics. The tape drains before the warp
// arrives, so warps see each other's effects across a SyncBlock.
func (t *Task) SyncBlock() {
	if int(t.threads) <= t.c.dev.Cfg.ThreadsPerWarp {
		return
	}
	if t.bar == nil {
		panic("gpu: SyncBlock on a multi-warp task without a barrier (spawned without sync?)")
	}
	t.c.recordCompute(t.c.dev.Cfg.BarrierCost)
	t.c.drain()
	t.bar.Arrive(t.c.Proc())
}

// HasShared reports whether the task has shared memory.
func (t *Task) HasShared() bool { return t.smSize > 0 }

// Shared is getSMPtr(): the task threadblock's shared memory. It panics when
// the task has none.
func (t *Task) Shared() []byte {
	if t.smSize == 0 {
		panic("gpu: Shared() on a task without shared memory")
	}
	if t.shared == nil {
		if *t.arena == nil {
			*t.arena = make([]byte, t.arenaLen)
		}
		lo, hi := t.smOff, t.smOff+t.smSize
		t.shared = (*t.arena)[lo:hi:hi]
	}
	return t.shared
}
