// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine owns a virtual clock measured in abstract time units (this
// repository uses GPU cycles, 1 cycle = 1 ns at 1 GHz) and an event queue.
// Concurrency is expressed with coroutine-style processes (Proc): each body
// runs on a pooled iter.Pull coroutine, and the engine runs exactly one
// process at a time, resuming coroutines from one dispatch loop in RunUntil,
// so simulations are fully deterministic and free of data races even though
// every process has its own stack. Close unwinds the processes still parked
// when a simulation ends.
//
// Events scheduled for the same timestamp fire in the order they were
// scheduled (a monotonically increasing sequence number breaks ties).
package sim

import (
	"fmt"
	"math"
)

// Time is the virtual clock type, in cycles. Fractional cycles arise from
// fair-share resources (Share).
type Time = float64

// Infinity is a timestamp later than any event the engine will ever fire.
const Infinity Time = math.MaxFloat64

// event is a pooled queue entry. It carries one of two payloads: a process
// resume (proc with its wake generation in gen, step nil) or a step, run
// with gen as its argument. A step event that also names proc is a stage of
// that process's chain (Proc.Chain) and is dropped, like a resume, once the
// proc is no longer blocked under gen. idx is the entry's position in the
// queue heap, maintained by the sift routines so timers can re-key or remove
// their entry in place.
type event struct {
	at   Time
	seq  int64
	idx  int
	step Step
	proc *Proc
	gen  uint64
}

// Step is the payload of every queued event other than a process resume: a
// continuation run on the event loop with the argument it was queued with.
// A Schedule callback, an armed Timer and a chained process stage are all
// steps. A step must not block.
type Step interface {
	Step(arg uint64)
}

// funcStep is a Schedule callback as a Step. A func value is pointer-shaped,
// so converting one to the interface does not allocate.
type funcStep func()

func (f funcStep) Step(uint64) { f() }

// Engine is a discrete-event simulator. The zero value is not usable; call
// New.
type Engine struct {
	now   Time
	seq   int64
	queue []*event
	// lane holds the non-timer events scheduled for the instant at which
	// they were scheduled, oldest first. The clock cannot pass an entry
	// while it waits, so the lane is in (at, seq) order by construction and
	// dispatch merges its head with the heap's.
	lane FIFO[*event]
	// pool recycles popped event structs; its high-water mark is the maximum
	// number of simultaneously pending events, so it stays small.
	pool []*event
	// deadline is the active RunUntil bound, visible to whichever coroutine
	// currently drives the event loop.
	deadline Time
	// current is the process the last dispatch handed the baton to, which
	// the RunUntil loop resumes next.
	current *Proc
	// yielded says why a coroutine last switched back to the RunUntil loop,
	// and panicked carries a body's panic value there.
	yielded  dispatchResult
	panicked any
	// head and tail link every spawned, unfinished process in spawn order,
	// for LiveProcs, BlockedProcs and Close.
	head, tail *Proc
	// running counts the coroutines held: started, unfinished procs,
	// less stepped procs between Runs.
	running int64
	stats   Stats
}

// Stats counts an engine's work since New. Every count is deterministic:
// the same simulation yields the same numbers on any host.
type Stats struct {
	// Events counts fired queue entries: callbacks, timer expiries and
	// process resumes. Stale wake-ups are dropped, not fired.
	Events int64 //pagoda:allow unused TestEngineStatsPinned and TestStatsCounts pin it exactly; a moved count flags a changed event order
	// Handoffs counts resumes that switched coroutines: the baton moved to
	// a process other than the one driving the event loop, or a stepped
	// proc took a coroutine for its Run.
	Handoffs int64 //pagoda:allow unused TestEngineStatsPinned and TestStatsCounts pin it exactly; a moved count flags a changed event order
	// SelfResumes counts resumes of the yielding process itself, which
	// return without any switch.
	SelfResumes int64 //pagoda:allow unused TestEngineStatsPinned and TestStatsCounts pin it exactly; a moved count flags a changed event order
	// PeakRunning is the most procs that were ever started but not
	// finished at once: the peak number of coroutines the engine held. A
	// stepped proc between Runs does not count. A 32-node Pagoda fleet
	// peaks at 2,287 (TestEngineStatsPinned), which is also its peak of
	// live procs: its idle executor warps are not procs at all.
	PeakRunning int64
	// LaneEvents counts the fired events that came from the same-instant
	// lane rather than the heap.
	LaneEvents int64 //pagoda:allow unused TestEngineStatsPinned and TestStatsCounts pin it exactly; a moved count flags a changed event order
	// HeapPushes counts entries inserted into the event heap: events
	// scheduled for a later instant and timers armed from rest.
	HeapPushes int64 //pagoda:allow unused TestEngineStatsPinned and TestStatsCounts pin it exactly; a moved count flags a changed event order
	// Rekeys counts timer re-arms that moved an armed timer's heap entry
	// in place.
	Rekeys int64 //pagoda:allow unused TestEngineStatsPinned and TestStatsCounts pin it exactly; a moved count flags a changed event order
	// Steps counts fired stages of chained processes (Proc.Chain) and
	// resumes of stepped procs run on the event loop (StartStepped).
	Steps int64 //pagoda:allow unused TestEngineStatsPinned and TestStatsCounts pin it exactly; a moved count flags a changed event order
	// PeakPending is the most events ever queued at once, heap and lane
	// together.
	PeakPending int64
}

// New returns an engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Stats returns the engine's work counters.
func (e *Engine) Stats() Stats { return e.stats }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// newEvent allocates (or recycles) a queue entry at absolute time at,
// assigns the next sequence number and queues it: in the same-instant lane
// when at is the current instant, in the heap otherwise. Callers fill in the
// payload after it returns.
func (e *Engine) newEvent(at Time) *event {
	ev := e.allocEvent(at)
	if at == e.now {
		e.lane.Push(ev)
		e.notePending()
	} else {
		e.heapPush(ev)
	}
	return ev
}

// allocEvent takes a pooled entry keyed (at, next seq) without queueing it.
func (e *Engine) allocEvent(at Time) *event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule in the past: %v < %v", at, e.now))
	}
	if len(e.pool) == 0 {
		chunk := make([]event, eventChunk)
		for i := range chunk {
			e.pool = append(e.pool, &chunk[i])
		}
	}
	n := len(e.pool)
	ev := e.pool[n-1]
	e.pool[n-1] = nil
	e.pool = e.pool[:n-1]
	e.seq++
	ev.at = at
	ev.seq = e.seq
	return ev
}

// notePending records a new high-water mark of queued events.
func (e *Engine) notePending() {
	if n := int64(len(e.queue) + e.lane.Len()); n > e.stats.PeakPending {
		e.stats.PeakPending = n
	}
}

// eventChunk is how many queue entries newEvent allocates at once when the
// pool runs dry, so warming an engine's pool up to its peak queue depth costs
// one allocation per chunk rather than one per entry. Chunks belong to one
// engine; nothing is shared between engines.
const eventChunk = 32

// maxPool bounds the event free list. An entry dropped beyond it is not
// reused, but its chunk stays allocated while any neighbour is still in use,
// so freeEvent clears the entry first and it keeps no step or Proc alive.
const maxPool = 1 << 14

// freeEvent returns a popped or removed entry to the pool.
func (e *Engine) freeEvent(ev *event) {
	ev.step = nil
	ev.proc = nil
	ev.gen = 0
	if len(e.pool) >= maxPool {
		return
	}
	e.pool = append(e.pool, ev)
}

// Schedule arranges for fn to run at Now()+delay. A negative delay panics.
// fn runs on the engine's event loop; it may resume processes but must not
// block.
//
//pagoda:allow unused test support: tests in several packages inject events at a delay; a taintflow sink
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt arranges for fn to run at absolute time at, which must not be in
// the past.
//
//pagoda:allow unused test support: tests inject events at an absolute instant; a taintflow sink
func (e *Engine) ScheduleAt(at Time, fn func()) {
	e.newEvent(at).step = funcStep(fn)
}

// scheduleProc queues a resume of p at Now()+delay without allocating a
// closure (the hot Sleep/Wakeup path).
func (e *Engine) scheduleProc(delay Time, p *Proc, gen uint64) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	ev := e.newEvent(e.now + delay)
	ev.proc = p
	ev.gen = gen
}

// scheduleStep queues the next stage of p's chain after delay, in the queue
// slot a resume of p after delay would take (a Wakeup's when delay is 0):
// p's Runner runs it with the generation p is blocked under.
func (e *Engine) scheduleStep(delay Time, p *Proc) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	ev := e.newEvent(e.now + delay)
	ev.step = p.run.(Step)
	ev.proc = p
	ev.gen = p.wakeGen
}

// Run executes events until the queue drains. It returns the final virtual
// time.
func (e *Engine) Run() Time { return e.RunUntil(Infinity) }

// RunUntil executes events with timestamps <= deadline, stopping earlier if
// the queue drains. The clock is left at the time of the last executed event
// (or at deadline if the deadline was reached with events still pending).
// The clock never moves backward: a deadline before Now fires nothing and
// leaves the clock where it is.
func (e *Engine) RunUntil(deadline Time) Time {
	e.deadline = deadline
	for r := e.dispatch(nil); r != runEnded; {
		// The baton went to a process: run it until it hands off, ends the
		// run or finishes, in which case this loop takes over dispatch.
		e.switchTo(e.current)
		if r = e.yielded; r == procExited {
			r = e.dispatch(nil)
		}
	}
	return e.now
}

// dispatchResult says how a dispatch loop ended.
type dispatchResult int

const (
	// runEnded: queue drained or deadline reached; RunUntil returns.
	runEnded dispatchResult = iota
	// batonHandedOff: the next runnable event resumes e.current, a process
	// other than the dispatcher; RunUntil's loop switches to it.
	batonHandedOff
	// selfResumed: the next runnable event was the dispatcher's own resume —
	// it simply continues, with no switch at all (the common Sleep/rearm
	// ping-pong).
	selfResumed
	// procExited: a process body returned (or was unwound), or a stepped
	// proc waits again after its Run, and its coroutine switched back to
	// RunUntil, which resumes dispatch.
	procExited
)

// dispatch drives the event loop on the calling coroutine until the run ends
// or the baton moves. self is the process driving the loop from its yield
// point (nil when called from RunUntil): resuming self short-circuits
// without any switch, and resuming another process is left to RunUntil's
// loop, two coroutine switches away.
func (e *Engine) dispatch(self *Proc) dispatchResult {
	for {
		// The next event is the lane's head or the heap's, whichever is
		// earlier in (at, seq).
		var ev *event
		fromLane := e.lane.Len() > 0
		switch {
		case fromLane && (len(e.queue) == 0 || eventLess(e.lane.Peek(), e.queue[0])):
			ev = e.lane.Peek()
		case len(e.queue) > 0:
			ev, fromLane = e.queue[0], false
		default:
			return runEnded
		}
		if ev.at > e.deadline {
			if e.deadline > e.now {
				e.now = e.deadline
			}
			return runEnded
		}
		if fromLane {
			e.lane.Pop()
		} else {
			e.heapPopHead()
			e.now = ev.at
		}
		step, p, gen := ev.step, ev.proc, ev.gen
		e.freeEvent(ev)
		if p != nil {
			if p.dead || gen != p.wakeGen || !p.armed {
				continue // stale wake-up
			}
			if step == nil {
				e.countFired(fromLane)
				p.armed = false
				p.parked = false
				if p.stepped && p.w == nil && !e.resume(p) {
					continue
				}
				if p == self {
					e.stats.SelfResumes++
					return selfResumed
				}
				e.stats.Handoffs++
				e.current = p
				return batonHandedOff
			}
			e.stats.Steps++
		}
		e.countFired(fromLane)
		step.Step(gen)
	}
}

// resume runs a stepped proc that holds no coroutine in the event that
// resumes it, counted as a step, and reports whether its Resume asked for
// its Run, which takes the baton, and a coroutine, as a handoff. A Resume
// that arms nothing ends the proc.
func (e *Engine) resume(p *Proc) bool {
	if p.run.(Stepper).Resume(p) {
		return true
	}
	e.stats.Steps++
	if !p.armed {
		p.finish()
	}
	return false
}

// countFired counts one fired event.
func (e *Engine) countFired(fromLane bool) {
	e.stats.Events++
	if fromLane {
		e.stats.LaneEvents++
	}
}

// Pending returns the number of queued events (diagnostics). A re-armed
// timer re-keys its one entry and a fired timer's entry has left the queue,
// so this is O(live events).
//
//pagoda:allow unused test support: drain and leak checks read the queue length
func (e *Engine) Pending() int { return len(e.queue) + e.lane.Len() }

// LiveProcs returns the number of spawned processes that have not finished.
//
//pagoda:allow unused test support: leak checks count unfinished procs
func (e *Engine) LiveProcs() int {
	n := 0
	for p := e.head; p != nil; p = p.next {
		n++
	}
	return n
}

// BlockedProcs returns the names of live processes that have no pending
// wake-up — the ones parked on a Signal or in a Share — in spawn order.
// When Run returns with the queue drained but BlockedProcs is non-empty,
// those processes are deadlocked; the list is the first thing to print when
// hunting one.
//
//pagoda:allow unused test support: leak and deadlock checks name parked procs
func (e *Engine) BlockedProcs() []string {
	var out []string
	for p := e.head; p != nil; p = p.next {
		if p.parked {
			out = append(out, p.Name())
		}
	}
	return out
}
