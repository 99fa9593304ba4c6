package core

import (
	"repro/internal/gpu"
	"repro/internal/sim"
)

// warpSlot is one WarpTable entry (Table 2): bookkeeping for one executor
// warp, stored in the MTB's shared memory. The executor warp exists only
// while its slot is filled: the scheduler warp starts it on filling the
// slot, and it ends when it clears exec.
type warpSlot struct {
	warpID    int // warp ID within the current task (drives getTid)
	eNum      int // TaskTable row being executed
	smNode    int // buddy-allocator handle (0 = no shared memory)
	smOffset  int // shared-memory start for this threadblock (SMindex)
	smSize    int
	barID     int // named-barrier ID, -1 when the task needs no sync
	exec      bool
	execSince sim.Time
}

// MTB is one MasterKernel threadblock: a scheduler warp, 31 executor warps,
// a WarpTable, a 32 KB shared-memory arena with its buddy allocator, and a
// pool of 16 named barriers. Each MTB owns one TaskTable column. Its column
// and WarpTable are sub-slices of one array per kind (NewRuntime); its
// buddy allocator, barriers and arena are made on first use, as most MTBs
// of a lightly loaded runtime never need them.
type MTB struct {
	rt *Runtime

	entries []deviceEntry // this MTB's TaskTable column (device side)
	slots   []warpSlot

	buddy *Buddy // made by the first allocSM
	// arena is the real backing store for getSMPtr, allocated zeroed on
	// first use: most tasks never touch shared memory.
	arena []byte

	bars     []gpu.Barrier // made, with barInUse, by the first allocBarrier
	barInUse []bool

	activity  sim.Signal // new work for the scheduler warp
	warpFreed sim.Signal // an executor warp became free
	smemFreed sim.Signal // a block was marked for deallocation
	barFreed  sim.Signal // a named barrier was released

	ctrSite gpu.AtomicSite // shared-memory warp/done counters
}

// wakeAll releases the scheduler warp of this MTB wherever it waits (used
// at shutdown); it sees the shutdown flag and ends.
func (m *MTB) wakeAll() {
	m.activity.Broadcast()
	m.warpFreed.Broadcast()
	m.smemFreed.Broadcast()
	m.barFreed.Broadcast()
}

// ---------------------------------------------------------------------------
// Scheduler warp: Algorithm 1, lines 2-28.
// ---------------------------------------------------------------------------

func (m *MTB) schedulerLoop(c *gpu.Ctx) {
	rt := m.rt
	for {
		if rt.shutdown {
			return
		}
		// One sweep over the column. The 32 scheduler-warp threads scan in
		// parallel; we charge an aggregated scan cost plus one coalesced
		// read of the column's state words.
		c.Compute(rt.Cfg.ScanCost)
		c.GlobalRead(len(m.entries) * 8)
		acted := false
		unresolved := false

		// Phase 1 (lines 5-13): resolve pipelining pointers. An entry whose
		// ready field holds a TaskID proves that task's parameters arrived
		// in an earlier memcpy transaction, so the previous task may now be
		// marked schedulable.
		for i := range m.entries {
			if e := &m.entries[i]; e.ready > 1 {
				if m.resolvePointer(c, e) {
					acted = true
				} else {
					unresolved = true
				}
			}
		}

		// Phase 2 (lines 14-28): schedule entries whose sched flag is set.
		for i := range m.entries {
			if rt.shutdown {
				return
			}
			if e := &m.entries[i]; e.sched {
				m.scheduleTask(c, i, e)
				acted = true
			}
		}

		if !acted {
			if rt.shutdown {
				return
			}
			if unresolved {
				// A pointer is pending on another column's progress (lines
				// 8-10: "threadfence(); continue"): keep polling, as the
				// real scheduler warp does — parking would miss the other
				// column's state change.
				c.Sleep(rt.Cfg.SchedulerWakeDelay)
				continue
			}
			m.activity.Wait(c.Proc())
			// Model the polling gap between state changing in device memory
			// and the scheduler's scan observing it.
			c.Sleep(rt.Cfg.SchedulerWakeDelay)
		}
	}
}

// resolvePointer handles an entry whose ready field is a TaskID. It returns
// true if the entry advanced to the (-1, 0) state.
func (m *MTB) resolvePointer(c *gpu.Ctx, e *deviceEntry) bool {
	rt := m.rt
	prevRef := slotForTaskID(TaskID(e.ready), rt.Cfg.Rows, rt.totalEntries)
	prev := &rt.mtbs[prevRef.col].entries[prevRef.row]
	switch {
	case prev.id == TaskID(e.ready) && prev.ready == readyCopied:
		// S2 sets the previous task's state to (1, 1)...
		prev.ready = readyScheduling
		prev.sched = true
		c.GlobalWrite(16)
		c.Threadfence()
		rt.mtbs[prevRef.col].activity.Broadcast()
	case prev.id == TaskID(e.ready) && prev.ready > 1:
		// The previous task has not itself been resolved yet; retry later
		// (lines 8-10: threadfence and continue).
		c.Threadfence()
		return false
	default:
		// The previous task is already scheduling, finished, or its entry
		// was recycled: the pipelining pointer's purpose (proving the
		// previous parameters arrived) is already served.
	}
	// ...and then sets the current task's state to (-1, 0).
	e.ready = readyCopied
	c.GlobalWrite(8)
	return true
}

// scheduleTask performs lines 14-28 for one entry.
func (m *MTB) scheduleTask(c *gpu.Ctx, row int, e *deviceEntry) {
	rt := m.rt
	warpSize := c.WarpSize()
	e.sched = false
	c.GlobalWrite(8)
	e.schedTime = c.Now()
	wpt := e.spec.warpsPerTB(warpSize)
	e.doneCtr = e.spec.totalWarps(warpSize)

	if e.spec.SharedMem > 0 || e.spec.Sync {
		// Schedule warps per threadblock, allocating shared memory and a
		// named barrier for each block.
		for j := 0; j < e.spec.Blocks; j++ {
			if rt.shutdown {
				return
			}
			barID := -1
			if e.spec.Sync && wpt > 1 {
				barID = m.allocBarrier(c, wpt)
				if barID < 0 {
					return // shutdown
				}
			}
			node, off := 0, 0
			if e.spec.SharedMem > 0 {
				var ok bool
				node, off, ok = m.allocSM(c, e.spec.SharedMem)
				if !ok {
					return // shutdown
				}
			}
			m.pSched(c, j*wpt, row, node, off, e.spec.SharedMem, barID, wpt)
		}
	} else {
		// No shared memory or sync: schedule all warps purely on free slots.
		m.pSched(c, 0, row, 0, 0, 0, -1, e.spec.totalWarps(warpSize))
	}
}

// allocBarrier finds a free named-barrier ID and sizes it for wpt warps,
// blocking until one of the 16 IDs is recycled. Returns -1 on shutdown.
func (m *MTB) allocBarrier(c *gpu.Ctx, wpt int) int {
	if m.bars == nil {
		m.bars = make([]gpu.Barrier, m.rt.Cfg.NumBarriers)
		m.barInUse = make([]bool, len(m.bars))
	}
	for {
		if m.rt.shutdown {
			return -1
		}
		c.Compute(2)
		c.SharedRead(16)
		for id, used := range m.barInUse {
			if !used {
				m.barInUse[id] = true
				m.bars[id].Reset(wpt)
				c.SharedWrite(8)
				return id
			}
		}
		m.barFreed.Wait(c.Proc())
	}
}

func (m *MTB) releaseBarrier(c *gpu.Ctx, id int) {
	m.barInUse[id] = false
	c.SharedWrite(8)
	m.barFreed.Pulse()
}

// allocSM implements lines 20-24: drain blocks marked for deallocation, then
// try the buddy allocator, blocking on smemFreed until space appears.
func (m *MTB) allocSM(c *gpu.Ctx, size int) (node, offset int, ok bool) {
	if m.buddy == nil {
		m.buddy = NewBuddy(m.rt.Cfg.SharedPerMTB, m.rt.Cfg.MinAllocBlock)
	}
	for {
		if m.rt.shutdown {
			return 0, 0, false
		}
		if n := m.buddy.DrainPending(); n > 0 {
			// Parallel unmark by the scheduler warp's threads: ~4 nodes per
			// thread (§5.1).
			c.Compute(float64(4 * n))
			c.SharedWrite(16 * n)
		}
		c.Compute(8) // parallel level scan + subtree marking
		c.SharedWrite(16)
		offset, node, found := m.buddy.Alloc(size)
		if found {
			return node, offset, true
		}
		m.smemFreed.Wait(c.Proc())
	}
}

// pSched is Algorithm 2: the scheduler warp's threads claim free executor
// warps in parallel until `count` warps are scheduled, synchronizing each
// sweep with a warp vote (_all) rather than __syncthreads. Filling a slot
// starts its executor warp.
func (m *MTB) pSched(c *gpu.Ctx, baseWarp, eNum, smNode, smOffset, smSize, barID, count int) {
	scheduled := 0
	for scheduled < count {
		if m.rt.shutdown {
			return
		}
		c.Compute(4) // 32 threads scan the 31 slots' exec flags
		for i := range m.slots {
			if scheduled == count {
				break
			}
			s := &m.slots[i]
			if s.exec {
				continue
			}
			c.Compute(2) // atomicDec(warpCtr) in shared memory + slot fill
			s.warpID = baseWarp + scheduled
			s.eNum = eNum
			s.smNode, s.smOffset, s.smSize = smNode, smOffset, smSize
			s.barID = barID
			c.ThreadfenceBlock()
			s.exec = true
			s.execSince = c.Now()
			m.rt.kernel.StartWarp(c.BlockIdx, i+1)
			scheduled++
		}
		c.WarpVoteAll() // synchronize the scheduler warp's threads
		if scheduled < count {
			m.warpFreed.Wait(c.Proc())
		}
	}
}

// runTaskKernel invokes the task kernel and charges what it recorded,
// optionally isolating panics: a faulty task kernel is recorded and its
// warps retire normally instead of taking down the whole runtime — the
// software analogue of a kernel fault killing one grid, not the GPU
// context. The ops a faulty kernel recorded before it panicked are charged
// first, so the fault is counted at the instant the panic would have struck.
func (m *MTB) runTaskKernel(tc *TaskCtx, e *deviceEntry) {
	rt := m.rt
	if !rt.Cfg.IsolateKernelPanics {
		e.spec.Kernel(tc)
		tc.Drain()
		return
	}
	defer func() {
		if r := recover(); r != nil {
			if sim.Unwinding(r) {
				panic(r) // Engine.Close, not a task fault
			}
			tc.Drain()
			rt.failedTasks++
			if rt.OnTaskFault != nil {
				rt.OnTaskFault(e.id, r)
			}
		}
	}()
	e.spec.Kernel(tc)
	tc.Drain()
}

// ---------------------------------------------------------------------------
// Executor warps: Algorithm 1, lines 29-43.
// ---------------------------------------------------------------------------

// execute runs the task in the executor warp's WarpTable slot s, which the
// scheduler warp filled before starting the warp; the warp borrows a
// coroutine only for this, and ends when it returns.
func (m *MTB) execute(c *gpu.Ctx, s *warpSlot) {
	rt := m.rt
	c.SharedRead(32) // read the WarpTable slot
	e := &m.entries[s.eNum]
	c.GlobalRead(32) // fetch the task's kernel pointer and arguments

	var bar *gpu.Barrier
	if s.barID >= 0 {
		bar = &m.bars[s.barID]
	}
	tc := c.Task()
	tc.BindWarp(c, e.spec.Threads, e.spec.Blocks, s.warpID, bar, e.spec.Args)
	if s.smSize > 0 {
		tc.UseArena(&m.arena, rt.Cfg.SharedPerMTB, s.smOffset, s.smSize)
	}
	m.runTaskKernel(tc, e) // the warp executes the task as a subroutine

	// Epilogue (lines 34-43), performed by one thread per warp.
	wpt := e.spec.warpsPerTB(c.WarpSize())
	lastInBlock := (s.warpID+1)%wpt == 0
	if lastInBlock {
		if s.smNode != 0 {
			m.buddy.MarkForDealloc(s.smNode)
			c.SharedWrite(8)
			m.smemFreed.Pulse()
		}
		if s.barID >= 0 {
			m.releaseBarrier(c, s.barID)
		}
	}
	c.ThreadfenceBlock()
	c.AtomicShared(&m.ctrSite) // atomicDec(doneCtr)
	e.doneCtr--
	if e.doneCtr == 0 {
		e.ready = readyFree // free the task entry
		c.GlobalWrite(8)
		e.endTime = c.Now()
		rt.taskFinished(e)
	}
	s.exec = false
	rt.busyWarpIntegral += c.Now() - s.execSince
	m.warpFreed.Pulse()
}
