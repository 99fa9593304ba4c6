package core

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/sim"
)

// TaskID identifies a spawned task. IDs start at 2 so that the TaskTable
// ready field can encode the four states of Fig. 2 in one integer:
//
//	 0  — entry free / task done
//	-1  — parameters copied to the table
//	 1  — task is being considered for scheduling
//	>1  — a TaskID: "the task whose parameters were copied in the previous
//	      memcpy transaction" (the pipelining pointer of §4.2.1)
type TaskID int64

const (
	readyFree       int64  = 0
	readyCopied     int64  = -1
	readyScheduling int64  = 1
	firstTaskID     TaskID = 2
)

// TaskKernel is Pagoda device code: a __device__ function executed by each
// executor warp assigned to the task.
type TaskKernel func(tc *TaskCtx)

// TaskCtx is the device-side API a task kernel sees (the GPU rows of Table
// 1): the gpu.Task every scheme hands its task kernels. It is the executor
// warp's own (gpu.Ctx.Task), rebound for every task the warp runs, so a
// kernel that keeps the pointer (in a scheduled closure, a map, ...) later
// sees another task.
type TaskCtx = gpu.Task

// TaskSpec mirrors the taskSpawn arguments of Table 1: threads per
// threadblock, threadblock count, shared-memory bytes per threadblock, the
// sync flag, the kernel pointer and its arguments.
type TaskSpec struct {
	Threads   int // threads per threadblock
	Blocks    int // number of threadblocks
	SharedMem int // bytes of shared memory per threadblock (0 = none)
	Sync      bool
	Kernel    TaskKernel
	Args      any
	// ArgBytes sizes the kernel-argument payload for PCIe accounting
	// (defaults to 64 when zero).
	ArgBytes int
}

func (s TaskSpec) warpsPerTB(warpSize int) int {
	return (s.Threads + warpSize - 1) / warpSize
}

func (s TaskSpec) totalWarps(warpSize int) int {
	return s.Blocks * s.warpsPerTB(warpSize)
}

// deviceEntry is the GPU-resident TaskTable entry. The host never reads it
// directly; it learns its state through explicit copy-backs (the mirrors may
// disagree at any instant, exactly as in Fig. 2b).
type deviceEntry struct {
	ready int64
	id    TaskID
	spec  TaskSpec

	spawnTime sim.Time
	schedTime sim.Time
	endTime   sim.Time

	doneCtr int32 // remaining warps; the last one frees the entry
	sched   bool
}

// hostEntry is the CPU-side mirror of one entry.
type hostEntry struct {
	ready       int64
	id          TaskID
	h2dInFlight bool // spawn copy enqueued but not yet delivered
}

// tableEntry is one TaskTable slot: the device entry and its CPU mirror.
// The runtime makes them a row at a time, one entry per MTB column, when a
// spawn first reaches the row (Runtime.findFreeEntry).
type tableEntry struct {
	dev  deviceEntry
	host hostEntry
}

// entryRef addresses one TaskTable slot.
type entryRef struct{ col, row int }

// globalIndex returns the flattened entry index.
func (r entryRef) globalIndex(rows int) int { return r.col*rows + r.row }

// taskIDFor builds a TaskID for generation gen of the given slot. The slot
// index is recoverable as (id-2) mod totalEntries, which is how the GPU
// scheduler resolves the pipelining pointer without a side table, and a
// slot's next generation is its last TaskID plus totalEntries, so the CPU
// mirror's id is the slot's generation counter.
func taskIDFor(gen int64, global, totalEntries int) TaskID {
	return firstTaskID + TaskID(gen*int64(totalEntries)+int64(global))
}

// slotForTaskID inverts taskIDFor.
func slotForTaskID(id TaskID, rows, totalEntries int) entryRef {
	g := int(int64(id-firstTaskID) % int64(totalEntries))
	return entryRef{col: g / rows, row: g % rows}
}

func (e *deviceEntry) String() string {
	return fmt.Sprintf("entry{id=%d ready=%d sched=%v}", e.id, e.ready, e.sched)
}
