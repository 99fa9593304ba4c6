package core

import (
	"fmt"
	"math"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Runtime is the Pagoda runtime system: the host-side TaskTable mirror, the
// spawn/wait API of Table 1, and the persistent MasterKernel on the device.
type Runtime struct {
	Eng *sim.Engine
	Ctx *cuda.Context
	Cfg Config

	mtbs []MTB
	// rows are the TaskTable rows a spawn has reached, each made when
	// findFreeEntry first reaches it and never moved, as scheduler warps
	// and spawn copies hold its entries across blocking calls. The scan is
	// row-major and stops at the first free entry, so they are always rows
	// 0 to len(rows)-1; a row not made yet holds free entries only, and
	// every reader treats it so. Modelled costs charge the full table.
	rows         [][]tableEntry
	totalEntries int

	spawnStream *cuda.Stream // pipelined per-entry parameter copies

	kernel   *gpu.Kernel // the MasterKernel
	shutdown bool

	// Spawning state.
	nextTaskSeq      int64
	lastSpawned      TaskID
	lastFlushed      TaskID
	rrCursor         int // round-robin scan position over flattened entries
	spawned          int
	batchOutstanding int

	// Device-side completion accounting (read by the host only through
	// copy-backs; exposed directly only in Stats, after the run).
	deviceCompleted int

	latSum           float64
	latMax           sim.Time
	latCount         int
	busyWarpIntegral float64

	// CopyBacks counts forced TaskTable copy-back transactions (lazy
	// aggregate updates diagnostics).
	CopyBacks int //pagoda:allow unused TestTaskTableRecycling reads it as its window on §4.2's lazy copy-back; no report prints it

	// Trace, when set, records one span per completed task (track = MTB).
	Trace *trace.Tracer

	// failedTasks counts task kernels that panicked under
	// Config.IsolateKernelPanics.
	failedTasks int

	// OnTaskFault, when set with IsolateKernelPanics, receives each faulting
	// task's ID and panic value.
	OnTaskFault func(TaskID, any)

	// OnHostObservedDone, when set, is invoked (on the host side) the first
	// time a copy-back reveals that the given task finished. Applications
	// use it to chain completion work — e.g. enqueueing the task's output
	// copy — exactly when the CPU actually learns of completion under the
	// lazy-update protocol.
	OnHostObservedDone func(TaskID)

	// OnTaskDone, when set, is invoked the instant the last executor warp of
	// a task finishes, with the device-side truth of its timeline: spawn
	// (TaskSpawn call), sched (scheduler warp picked it up) and end. Unlike
	// OnHostObservedDone it fires at device time regardless of copy-backs —
	// the measurement hook of the open-loop serving layer, where latency is
	// defined by completion, not by when the host happens to poll.
	OnTaskDone func(id TaskID, spawn, sched, end sim.Time)
}

// NewRuntime builds the runtime and launches the MasterKernel, which
// acquires every warp of the device (§4.1). Each MTB owns one column of
// the TaskTable, whose rows are made as spawns reach them; the WarpTables
// are sub-slices of one array.
func NewRuntime(ctx *cuda.Context, cfg Config) *Runtime {
	cfg.validate()
	rt := &Runtime{Eng: ctx.Eng, Ctx: ctx, Cfg: cfg}
	numMTBs := cfg.MTBsPerSMM * ctx.Dev.Cfg.NumSMMs
	rt.totalEntries = numMTBs * cfg.Rows
	rt.mtbs = make([]MTB, numMTBs)
	warps := cfg.ExecutorWarpsPerMTB()
	slots := make([]warpSlot, numMTBs*warps)
	site := gpu.NewAtomicSite(ctx.Dev.Cfg.AtomicSharedLatency)
	for i := range rt.mtbs {
		m := &rt.mtbs[i]
		m.rt, m.ctrSite = rt, *site
		m.slots = slots[i*warps : (i+1)*warps : (i+1)*warps]
		for j := range m.slots {
			m.slots[j].barID = -1
		}
	}
	rt.spawnStream = ctx.NewStream()
	rt.launchMasterKernel()
	return rt
}

// launchMasterKernel starts the daemon kernel: MTBsPerSMM x NumSMMs
// threadblocks of 32 warps each, 32 KB static shared memory, registers
// capped for 100% occupancy. The launch has its own Resume and is
// OnDemand: placement starts each block's scheduler warp, which runs its
// loop on a coroutine until shutdown, and the scheduler starts an executor
// warp when it fills the warp's WarpTable slot. The executor borrows a
// coroutine to run that task and then ends, so an idle executor is no warp
// at all; the block holds every warp's residency throughout, as on the
// device.
func (rt *Runtime) launchMasterKernel() {
	cfg := rt.Cfg
	spec := gpu.LaunchSpec{
		Name:          "MasterKernel",
		GridDim:       len(rt.mtbs),
		BlockThreads:  cfg.WarpsPerMTB * rt.Ctx.Dev.Cfg.ThreadsPerWarp,
		SharedPerTB:   cfg.SharedPerMTB,
		RegsPerThread: cfg.RegsPerThread,
		OnDemand:      true,
		Resume: func(c *gpu.Ctx) bool {
			if rt.shutdown {
				return false
			}
			return c.WarpInBlock == 0 || rt.mtbs[c.BlockIdx].slots[c.WarpInBlock-1].exec
		},
		Fn: func(c *gpu.Ctx) {
			m := &rt.mtbs[c.BlockIdx]
			if c.WarpInBlock == 0 {
				m.schedulerLoop(c)
			} else {
				m.execute(c, &m.slots[c.WarpInBlock-1])
			}
		},
	}
	occ := gpu.TheoreticalOccupancy(rt.Ctx.Dev.Cfg, spec)
	if occ.TBsPerSMM < cfg.MTBsPerSMM {
		panic(fmt.Sprintf("core: MasterKernel config reaches only %d TBs/SMM, need %d", occ.TBsPerSMM, cfg.MTBsPerSMM))
	}
	rt.kernel = rt.Ctx.LaunchPersistent(spec)
}

func (rt *Runtime) entrySize(spec TaskSpec) int {
	ab := spec.ArgBytes
	if ab <= 0 {
		ab = 64
	}
	return rt.Cfg.EntryBytes + ab
}

func (rt *Runtime) validateSpec(spec TaskSpec) {
	warpSize := rt.Ctx.Dev.Cfg.ThreadsPerWarp
	maxThreads := rt.Cfg.ExecutorWarpsPerMTB() * warpSize
	switch {
	case spec.Kernel == nil:
		panic("core: TaskSpawn with nil kernel")
	case spec.Threads <= 0 || spec.Blocks <= 0:
		panic(fmt.Sprintf("core: TaskSpawn with threads=%d blocks=%d", spec.Threads, spec.Blocks))
	case spec.Threads > maxThreads:
		panic(fmt.Sprintf("core: task threadblock of %d threads exceeds the %d executor lanes of an MTB", spec.Threads, maxThreads))
	case spec.Blocks > math.MaxInt32/spec.warpsPerTB(warpSize):
		panic(fmt.Sprintf("core: task of %d threadblocks exceeds the warps a TaskTable entry can count", spec.Blocks))
	case spec.SharedMem < 0 || spec.SharedMem > rt.Cfg.SharedPerMTB:
		panic(fmt.Sprintf("core: task shared memory %d exceeds the %d-byte MTB arena", spec.SharedMem, rt.Cfg.SharedPerMTB))
	}
}

// TaskSpawn launches a task onto Pagoda from the CPU (Table 1). It is
// non-blocking with respect to task execution: it returns as soon as the
// entry copy is enqueued, with the TaskID used by Wait/Check.
//
// Protocol (§4.2.2, Fig. 2): find an entry whose CPU-side ready field is 0,
// write the parameters, set ready to -1 for the very first task or to the
// TaskID of the previously spawned task otherwise, clear the sched flag, and
// copy the entry to the GPU in a single transaction.
func (rt *Runtime) TaskSpawn(host *sim.Proc, spec TaskSpec) TaskID {
	rt.validateSpec(spec)
	if rt.Cfg.Batching && rt.batchOutstanding >= rt.Cfg.BatchSize {
		rt.WaitAll(host)
		rt.batchOutstanding = 0
	}

	ref := rt.findFreeEntry(host)
	te := rt.slot(ref)
	he := &te.host
	id := taskIDFor(0, ref.globalIndex(rt.Cfg.Rows), rt.totalEntries)
	if he.id != 0 {
		id = he.id + TaskID(rt.totalEntries) // the slot's next generation
	}
	he.id = id
	he.h2dInFlight = true
	if rt.nextTaskSeq == 0 {
		he.ready = readyCopied // the very first task: ready = -1
	} else {
		he.ready = int64(rt.lastSpawned) // pipelining pointer to the previous task
	}
	rt.nextTaskSeq++
	rt.lastSpawned = id
	rt.spawned++
	rt.batchOutstanding++

	readyVal := he.ready
	spawnTime := rt.Eng.Now()
	host.Sleep(200) // host-side work: fill the CPU entry, bump stream

	dst := &te.dev
	rt.spawnStream.MemcpyH2DPipelined(host, rt.entrySize(spec), func() {
		// The entry materializes in device memory: parameters plus state.
		dst.id = id
		dst.spec = spec
		dst.ready = readyVal
		dst.sched = false
		dst.spawnTime = spawnTime
		dst.doneCtr = 0
		he.h2dInFlight = false
		rt.mtbs[ref.col].activity.Broadcast()
	})
	return id
}

// findFreeEntry scans the CPU mirror round-robin for a free entry, striping
// consecutive spawns across *columns* so the work spreads over all MTBs
// (each column belongs to one MTB; filling a column before moving on would
// leave most of the MasterKernel idle at low task counts). When all CPU-side
// ready fields are non-zero it forces the lazy aggregate copy-back of the
// whole table (§4.2, "Lazy Aggregate TaskTable Updates") and retries,
// sleeping between attempts while the GPU catches up. Every entry the scan
// passes is busy, so the first row not made yet is the next one: the scan
// makes it on reaching it.
func (rt *Runtime) findFreeEntry(host *sim.Proc) entryRef {
	cols := len(rt.mtbs)
	for {
		for i := 0; i < rt.totalEntries; i++ {
			s := (rt.rrCursor + i) % rt.totalEntries
			ref := entryRef{col: s % cols, row: s / cols}
			if ref.row == len(rt.rows) {
				rt.rows = append(rt.rows, make([]tableEntry, cols))
			}
			he := &rt.rows[ref.row][ref.col].host
			if he.ready == readyFree && !he.h2dInFlight {
				rt.rrCursor = (s + 1) % rt.totalEntries
				return ref
			}
		}
		rt.flushLast(host)
		rt.copyBackAll(host)
		if rt.anyFree() {
			continue
		}
		host.Sleep(rt.Cfg.WaitPollInterval)
	}
}

// slot returns the entry ref names, or nil while no spawn has reached its
// row.
func (rt *Runtime) slot(ref entryRef) *tableEntry {
	if ref.row >= len(rt.rows) {
		return nil
	}
	return &rt.rows[ref.row][ref.col]
}

func (rt *Runtime) anyFree() bool {
	if len(rt.rows) < rt.Cfg.Rows {
		return true // a row not made yet is free
	}
	for _, row := range rt.rows {
		for c := range row {
			if he := &row[c].host; he.ready == readyFree && !he.h2dInFlight {
				return true
			}
		}
	}
	return false
}

// copyBackAll models one aggregated D2H copy of the entire TaskTable and
// refreshes every CPU-side ready field from the device.
func (rt *Runtime) copyBackAll(host *sim.Proc) {
	rt.Ctx.MemcpyD2HSync(host, rt.totalEntries*rt.Cfg.EntryBytes)
	rt.CopyBacks++
	for _, row := range rt.rows {
		for c := range row {
			rt.applyCopyBack(&row[c])
		}
	}
}

// copyBackEntry copies one entry's state back (wait/check paths).
func (rt *Runtime) copyBackEntry(host *sim.Proc, ref entryRef) {
	rt.Ctx.MemcpyD2HSync(host, rt.Cfg.EntryBytes)
	rt.CopyBacks++
	rt.applyCopyBack(rt.slot(ref))
}

func (rt *Runtime) applyCopyBack(te *tableEntry) {
	he, de := &te.host, &te.dev
	if he.h2dInFlight {
		return // the spawn copy has not arrived; the device view is stale
	}
	if de.id == he.id {
		if he.ready != readyFree && de.ready == readyFree && rt.OnHostObservedDone != nil {
			rt.OnHostObservedDone(he.id)
		}
		he.ready = de.ready
	}
}

// flushLast implements the spawner-idle rule of §4.2.2: copy back the status
// of the last spawned task and, if it is still (-1, 0), set it to (1, 1) so
// the final task in a burst gets scheduled without a successor.
func (rt *Runtime) flushLast(host *sim.Proc) {
	// Capture the flush target before any yield: the spawner may spawn more
	// tasks while this proc sleeps inside the copies below, and crediting the
	// flush to whatever lastSpawned has become by then would mark a
	// never-flushed task as flushed — wedging it forever when no later spawn
	// arrives to resolve its pipelining pointer (sparse open-loop arrivals).
	target := rt.lastSpawned
	if target < firstTaskID || target == rt.lastFlushed {
		return
	}
	ref := slotForTaskID(target, rt.Cfg.Rows, rt.totalEntries)
	te := rt.slot(ref)
	he, de := &te.host, &te.dev
	if he.h2dInFlight || he.id != target {
		return
	}
	rt.Ctx.MemcpyD2HSync(host, rt.Cfg.EntryBytes)
	rt.CopyBacks++
	switch {
	case de.id != target:
		// Stale device view; retry on the next flush.
	case de.ready == readyCopied && !de.sched:
		rt.Ctx.MemcpyH2DSync(host, rt.Cfg.EntryBytes)
		if de.ready == readyCopied && !de.sched { // still unscheduled on arrival
			de.ready = readyScheduling
			de.sched = true
			rt.mtbs[ref.col].activity.Broadcast()
		}
		rt.lastFlushed = target
	case de.ready == readyScheduling || de.ready == readyFree:
		// Already scheduling or finished: no flush needed.
		rt.lastFlushed = target
	default:
		// The entry still holds its pipelining pointer (ready = prev TaskID):
		// the GPU scheduler has not resolved it yet. Retry on the next flush.
	}
	rt.applyCopyBack(te)
}

// taskDone consults only the CPU mirror (the host cannot see device memory
// without a copy).
func (rt *Runtime) taskDone(id TaskID) bool {
	te := rt.slot(slotForTaskID(id, rt.Cfg.Rows, rt.totalEntries))
	if te == nil || te.host.id != id {
		return true // the entry was recycled (the task completed long ago) or never used
	}
	he := &te.host
	return he.ready == readyFree && !he.h2dInFlight
}

// PollCompletions forces one aggregated TaskTable copy-back so the host
// observes recent completions (firing OnHostObservedDone). Applications that
// chain work off completions — e.g. per-task output copies — call this
// periodically from a collector thread, paying the copy-back's PCIe cost.
func (rt *Runtime) PollCompletions(host *sim.Proc) {
	rt.flushLast(host)
	rt.copyBackAll(host)
}

// Wait blocks until the given task is over (Table 1's wait). The laziness of
// TaskTable updates would block it forever, so it forces a copy-back of the
// involved entry every WaitPollInterval.
func (rt *Runtime) Wait(host *sim.Proc, id TaskID) {
	for {
		if rt.taskDone(id) {
			return
		}
		rt.flushLast(host)
		ref := slotForTaskID(id, rt.Cfg.Rows, rt.totalEntries)
		rt.copyBackEntry(host, ref)
		if rt.taskDone(id) {
			return
		}
		host.Sleep(rt.Cfg.WaitPollInterval)
	}
}

// Check returns the status of the task (Table 1's check): true if done.
func (rt *Runtime) Check(host *sim.Proc, id TaskID) bool {
	if rt.taskDone(id) {
		return true
	}
	rt.flushLast(host)
	rt.copyBackEntry(host, slotForTaskID(id, rt.Cfg.Rows, rt.totalEntries))
	return rt.taskDone(id)
}

// WaitAll blocks until every task spawned so far is over (Table 1's
// waitAll), using aggregated copy-backs.
func (rt *Runtime) WaitAll(host *sim.Proc) {
	for {
		rt.flushLast(host)
		rt.copyBackAll(host)
		if rt.allIdle() {
			return
		}
		host.Sleep(rt.Cfg.WaitPollInterval)
	}
}

func (rt *Runtime) allIdle() bool {
	for _, row := range rt.rows {
		for c := range row {
			if he := &row[c].host; he.ready != readyFree || he.h2dInFlight {
				return false
			}
		}
	}
	return true
}

// taskFinished records completion metrics; called by the last executor warp
// of a task, which runs on the MTB owning column col.
func (rt *Runtime) taskFinished(col int, e *deviceEntry) {
	rt.deviceCompleted++
	if rt.Trace.Enabled() {
		rt.Trace.Add(trace.Span{
			Name: trace.SpanName("task", int64(e.id)), Cat: "task",
			Track: fmt.Sprintf("MTB%02d", col),
			Start: e.spawnTime, End: e.endTime,
			Args: map[string]string{"sched_delay_ns": fmt.Sprintf("%.0f", e.schedTime-e.spawnTime)},
		})
	}
	lat := e.endTime - e.spawnTime
	rt.latSum += lat
	if lat > rt.latMax {
		rt.latMax = lat
	}
	rt.latCount++
	if rt.OnTaskDone != nil {
		rt.OnTaskDone(e.id, e.spawnTime, e.schedTime, e.endTime)
	}
}

// Shutdown terminates the MasterKernel: the host writes a termination flag
// to device memory and waits for the daemon to exit.
func (rt *Runtime) Shutdown(host *sim.Proc) {
	rt.spawnStream.Sync(host)
	rt.Ctx.MemcpyH2DSync(host, 8)
	rt.shutdown = true
	for i := range rt.mtbs {
		rt.mtbs[i].wakeAll()
	}
	rt.kernel.WaitDone(host)
}

// Stats summarizes a run.
type Stats struct {
	Spawned    int
	Completed  int
	Failed     int      // task kernels that panicked (IsolateKernelPanics)
	AvgLatency sim.Time // mean spawn-to-completion, cycles
	MaxLatency sim.Time
}

// TaskWarpOccupancy returns the achieved occupancy of *task work*: the mean
// fraction of the device's warp slots occupied by executing task warps over
// the first `elapsed` cycles. (The MasterKernel itself always holds 100% of
// the warps; this metric measures how much of that capacity carried tasks,
// which is what Table 5 reports.)
func (rt *Runtime) TaskWarpOccupancy(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return rt.busyWarpIntegral / (float64(rt.Ctx.Dev.Cfg.TotalWarps()) * elapsed)
}

// Stats returns run statistics. Completed reflects device-side truth and is
// intended for use after WaitAll/Shutdown.
func (rt *Runtime) Stats() Stats {
	s := Stats{
		Spawned:   rt.spawned,
		Completed: rt.deviceCompleted,
		Failed:    rt.failedTasks,
	}
	if rt.latCount > 0 {
		s.AvgLatency = rt.latSum / float64(rt.latCount)
		s.MaxLatency = rt.latMax
	}
	return s
}
