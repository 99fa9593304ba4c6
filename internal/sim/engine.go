// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine owns a virtual clock measured in abstract time units (this
// repository uses GPU cycles, 1 cycle = 1 ns at 1 GHz) and an event queue.
// Concurrency is expressed with processes (Proc), each with one body, a
// Runner: every wake-up runs the body's Resume on the event loop, which
// either arms the next wake-up or hands the process the baton to run the
// body's Run on a pooled iter.Pull coroutine. The engine runs exactly one
// process at a time, resuming coroutines from one dispatch loop in
// RunUntil, so simulations are fully deterministic and free of data races
// even though a running process has its own stack. Close unwinds the
// processes still parked when a simulation ends.
//
// Events scheduled for the same timestamp fire in the order they were
// scheduled (a monotonically increasing sequence number breaks ties).
package sim

import (
	"fmt"
	"math"
	"sync"
)

// Time is the virtual clock type, in cycles. Fractional cycles arise from
// fair-share resources (Share).
type Time = float64

// Infinity is a timestamp later than any event the engine will ever fire.
const Infinity Time = math.MaxFloat64

// event is a pooled queue entry. It carries one of two payloads: a process
// resume (proc with its wake generation in gen, step nil), dropped as stale
// once the proc is no longer blocked under gen, or a step (proc nil). idx is
// the entry's position in the queue heap, maintained by the sift routines so
// timers can re-key or remove their entry in place.
type event struct {
	at   Time
	seq  int64
	idx  int
	step step
	proc *Proc
	gen  uint64
}

// step is the payload of every queued event other than a process resume: a
// continuation run on the event loop. A Schedule callback and an armed Timer
// are steps. A step must not block.
type step interface {
	fire()
}

// funcStep is a Schedule callback as a step. A func value is pointer-shaped,
// so converting one to the interface does not allocate.
type funcStep func()

func (f funcStep) fire() { f() }

// Engine is a discrete-event simulator. The zero value is not usable; call
// New.
type Engine struct {
	now   Time
	seq   int64
	queue []*event
	// lane holds the non-timer events scheduled for the instant at which
	// they were scheduled, oldest first. The clock cannot pass an entry
	// while it waits, so the lane is in (at, seq) order by construction and
	// dispatch merges its head with the heap's and the delay lanes'.
	lane FIFO[*event]
	// delays are the fixed delays registered with RegisterDelay, and
	// dlanes[i] holds the non-timer events scheduled delays[i] after the
	// instant at which they were scheduled, oldest first (see heap4.go for
	// why each is in order). delayed counts their entries, and while it is
	// positive dhead indexes the lane whose head is earliest.
	delays  [maxDelayLanes]Time
	dlanes  [maxDelayLanes]FIFO[*event]
	ndelays int
	delayed int
	dhead   int
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
	// running counts the coroutines held: the procs inside a Run.
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
	// a process other than the one driving the event loop, to continue its
	// blocked Run or to start one on a coroutine from the pool.
	Handoffs int64 //pagoda:allow unused TestEngineStatsPinned and TestStatsCounts pin it exactly; a moved count flags a changed event order
	// SelfResumes counts resumes of the yielding process itself, which
	// return without any switch.
	SelfResumes int64 //pagoda:allow unused TestEngineStatsPinned and TestStatsCounts pin it exactly; a moved count flags a changed event order
	// PeakRunning is the most procs that were ever inside a Run at once:
	// the peak number of coroutines the engine held. A proc waiting
	// between Runs does not count. A 32-node Pagoda fleet peaks at 2,287
	// (TestEngineStatsPinned): its idle executor warps are not procs at
	// all.
	PeakRunning int64
	// LaneEvents counts the fired events that came from the same-instant
	// lane rather than the heap or a delay lane.
	LaneEvents int64 //pagoda:allow unused TestEngineStatsPinned and TestStatsCounts pin it exactly; a moved count flags a changed event order
	// HeapPushes counts entries inserted into the event heap: events
	// scheduled for a later instant at no registered delay, and timers
	// armed from rest.
	HeapPushes int64 //pagoda:allow unused TestEngineStatsPinned and TestStatsCounts pin it exactly; a moved count flags a changed event order
	// DelayPushes counts events queued in a fixed-delay lane
	// (RegisterDelay): without the lanes each would be a heap push.
	DelayPushes int64 //pagoda:allow unused TestEngineStatsPinned and TestStatsCounts pin it exactly; a moved count flags a changed event order
	// Rekeys counts timer re-arms that moved an armed timer's heap entry
	// in place.
	Rekeys int64 //pagoda:allow unused TestEngineStatsPinned and TestStatsCounts pin it exactly; a moved count flags a changed event order
	// Steps counts the resumes whose Runner's Resume armed the next
	// wake-up, or ended the proc, on the event loop without taking the
	// baton.
	Steps int64 //pagoda:allow unused TestEngineStatsPinned and TestStatsCounts pin it exactly; a moved count flags a changed event order
	// PeakPending is the most events ever queued at once, heap and lanes
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
	e.checkAt(at)
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

// checkAt panics unless at is an instant an event may take: not before
// now, and not NaN. A NaN key compares false with every other, so it would
// break the heap's order and fire out of turn.
func (e *Engine) checkAt(at Time) {
	if !(at >= e.now) {
		if at != at {
			panic(fmt.Sprintf("sim: schedule at NaN (now %v)", e.now))
		}
		panic(fmt.Sprintf("sim: schedule in the past: %v < %v", at, e.now))
	}
}

// notePending records a new high-water mark of queued events.
func (e *Engine) notePending() {
	if n := int64(e.Pending()); n > e.stats.PeakPending {
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

// maxDelayLanes bounds the fixed-delay lanes of an engine: a delay
// registered past it uses the heap.
const maxDelayLanes = 8

// RegisterDelay gives the fixed delay d a lane of its own: a process
// resume scheduled d from now (Sleep, WakeAfter) then skips the heap,
// firing in exactly the order it would have fired from there. Registering
// the delays a model waits most often makes its runs cheaper and changes
// nothing else. A d that is not positive and finite, or already
// registered, is ignored, as is one past the maxDelayLanes bound; timers
// and Schedule callbacks always use the heap.
func (e *Engine) RegisterDelay(d Time) {
	if !(d > 0) || math.IsInf(d, 1) || e.ndelays == maxDelayLanes {
		return
	}
	for _, v := range e.delays[:e.ndelays] {
		if v == d {
			return
		}
	}
	e.delays[e.ndelays] = d
	e.dlanes[e.ndelays].items = getLaneArray()
	e.ndelays++
}

// laneArrays is the process-wide free list of delay-lane backing arrays,
// shared by every engine as the coroutine pool is: RegisterDelay takes one
// for each new lane and Close gives back its empty lanes', so a sequence of
// short simulations stops growing lane arrays once one has reached its
// peak. A lane starts without an array only when the list is empty, so the
// list never holds more arrays than the most lanes ever open at once. It is
// a LIFO and Close returns the last lane's first, so an engine that
// registers delays in the order its predecessor did gets back the arrays
// that predecessor's lanes grew.
var laneArrays struct {
	sync.Mutex
	free [][]*event
}

// getLaneArray takes an idle lane array, or nil when there is none.
func getLaneArray() []*event {
	laneArrays.Lock()
	defer laneArrays.Unlock()
	n := len(laneArrays.free)
	if n == 0 {
		return nil
	}
	a := laneArrays.free[n-1]
	laneArrays.free[n-1] = nil
	laneArrays.free = laneArrays.free[:n-1]
	return a
}

// putLaneArrays returns the arrays of e's empty delay lanes to the free
// list; the lanes keep none.
func (e *Engine) putLaneArrays() {
	laneArrays.Lock()
	defer laneArrays.Unlock()
	for i := e.ndelays - 1; i >= 0; i-- {
		q := &e.dlanes[i]
		if q.Len() == 0 && cap(q.items) > 0 {
			laneArrays.free = append(laneArrays.free, q.items[:0])
			*q = FIFO[*event]{}
		}
	}
}

// queueAfter queues a non-timer event delay from now: in the lane
// registered for delay when there is one and the delay moves the clock,
// wherever newEvent puts it otherwise.
func (e *Engine) queueAfter(delay Time) *event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	at := e.now + delay
	if delay > 0 && at != e.now {
		for i, v := range e.delays[:e.ndelays] {
			if v == delay {
				ev := e.allocEvent(at)
				e.delayPush(i, ev)
				return ev
			}
		}
	}
	return e.newEvent(at)
}

// delayPush appends ev to delay lane i. Only a push into an empty lane can
// change which lane's head is earliest.
func (e *Engine) delayPush(i int, ev *event) {
	q := &e.dlanes[i]
	if q.Len() == 0 && (e.delayed == 0 || eventLess(ev, e.dlanes[e.dhead].Peek())) {
		e.dhead = i
	}
	q.Push(ev)
	e.delayed++
	e.stats.DelayPushes++
	e.notePending()
}

// delayPop removes the earliest delay-lane head and finds the next one.
func (e *Engine) delayPop() {
	e.dlanes[e.dhead].Pop()
	if e.delayed--; e.delayed == 0 {
		return
	}
	var head *event
	for i := range e.dlanes[:e.ndelays] {
		if q := &e.dlanes[i]; q.Len() > 0 && (head == nil || eventLess(q.Peek(), head)) {
			head, e.dhead = q.Peek(), i
		}
	}
}

// scheduleProc queues a resume of p at Now()+delay without allocating a
// closure (the hot Sleep/Wakeup path).
func (e *Engine) scheduleProc(delay Time, p *Proc, gen uint64) {
	ev := e.queueAfter(delay)
	ev.proc = p
	ev.gen = gen
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
	// procExited: a process's Run returned (or was unwound), and its
	// coroutine switched back to RunUntil, which resumes dispatch.
	procExited
)

// eventSource names the queue an event is popped from.
type eventSource uint8

const (
	fromHeap eventSource = iota
	fromLane
	fromDelay
)

// dispatch drives the event loop on the calling coroutine until the run ends
// or the baton moves. self is the process driving the loop from its yield
// point (nil when called from RunUntil): resuming self short-circuits
// without any switch, and resuming another process is left to RunUntil's
// loop, two coroutine switches away.
func (e *Engine) dispatch(self *Proc) dispatchResult {
	for {
		// The next event is the earliest in (at, seq) of three heads: the
		// same-instant lane's, the heap's and the earliest delay lane's.
		var ev *event
		src := fromHeap
		if len(e.queue) > 0 {
			ev = e.queue[0]
		}
		if e.delayed > 0 {
			if h := e.dlanes[e.dhead].Peek(); ev == nil || eventLess(h, ev) {
				ev, src = h, fromDelay
			}
		}
		if e.lane.Len() > 0 {
			if h := e.lane.Peek(); ev == nil || eventLess(h, ev) {
				ev, src = h, fromLane
			}
		}
		if ev == nil {
			return runEnded
		}
		if ev.at > e.deadline {
			if e.deadline > e.now {
				e.now = e.deadline
			}
			return runEnded
		}
		switch src {
		case fromLane:
			e.lane.Pop()
		case fromHeap:
			e.heapPopHead()
			e.now = ev.at
		default:
			e.delayPop()
			e.now = ev.at
		}
		lane := src == fromLane
		s, p, gen := ev.step, ev.proc, ev.gen
		e.freeEvent(ev)
		if p == nil {
			e.countFired(lane)
			s.fire()
			continue
		}
		if p.dead || gen != p.wakeGen || !p.armed {
			continue // stale wake-up
		}
		e.countFired(lane)
		p.armed = false
		p.parked = false
		// The proc's Resume runs here. One that waits again, or ends, is a
		// step; one that asks for its Run hands it the baton below.
		if !p.run.Resume(p) {
			e.stats.Steps++
			if !p.armed {
				p.end()
			}
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
}

// countFired counts one fired event.
func (e *Engine) countFired(fromLane bool) {
	e.stats.Events++
	if fromLane {
		e.stats.LaneEvents++
	}
}

// Pending returns the number of queued events. A re-armed timer re-keys
// its one entry and a fired timer's entry has left the queue, so this is
// O(live events).
func (e *Engine) Pending() int { return len(e.queue) + e.lane.Len() + e.delayed }

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
