//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"sync"
)

// Proc is a simulation process. Every event that resumes it runs its
// Runner's Resume on the event loop, which either arms the next wake-up
// itself, so the proc waits holding no coroutine, or hands the proc the
// engine's execution baton to start or continue its Run. Run executes on a
// pooled worker coroutine (iter.Pull) and only while it holds the baton.
// When it blocks on a simulation primitive (Sleep, Wait, ...) the blocking
// coroutine itself keeps driving the event loop (Engine.dispatch): if the
// next runnable event is its own resume it simply returns, with no switch at
// all. Only a handoff to another process, or the end of the run, switches
// back to the dispatch loop in RunUntil, which resumes the next process's
// coroutine. Exactly one Proc (or the dispatch loop) runs at any instant,
// which makes all simulation state single-threaded.
type Proc struct {
	eng *Engine
	// run is the body, which also names the proc.
	run Runner
	// w is the worker coroutine running the body's Run; nil while the proc
	// waits between Runs.
	w *worker
	// wakeGen guards against double wake-ups: a blocked proc records the
	// generation it is waiting on, and stale resume events are dropped.
	wakeGen uint64
	// prev and next link the engine's live processes in spawn order.
	prev, next *Proc
	dead       bool
	// killed asks the parked body to unwind (Engine.Close).
	killed bool
	// armed reports whether some event/signal is due to resume this proc.
	armed bool
	// parked reports the proc is blocked with no scheduled wake-up event
	// (on a Signal, or waiting in a Share) — only an explicit Wakeup or a
	// Share completion can resume it.
	parked bool
}

// Spawn creates a process executing body and schedules it to start at the
// current time. The name is used in diagnostics only.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	s := &spawned{name: name, body: body}
	e.Start(&s.proc, s)
	return &s.proc
}

// spawned is the Runner behind Spawn: a closure body under a fixed name,
// allocated together with its Proc.
type spawned struct {
	proc Proc
	name string
	body func(p *Proc)
}

// Run runs the body, first dropping the reference to it so a dead proc
// keeps nothing the closure captured alive. The proc ends when the body
// returns, even if the body armed a wake-up it never waited for: that
// wake-up is dropped as stale.
func (s *spawned) Run(p *Proc) {
	body := s.body
	s.body = nil
	body(p)
	p.armed = false
}

// Resume hands every wake-up to the body: to start it, then to continue it
// where it blocked.
func (s *spawned) Resume(*Proc) bool { return true }

func (s *spawned) String() string { return s.name }

// Runner is a process body that names itself. A type that embeds the Proc
// running it starts with Engine.Start, so one allocation covers both, and
// its String is formatted only when the name is read: by Proc.Name,
// BlockedProcs and the engine's panic messages.
//
// Resume runs on the event loop at every event that resumes the proc: its
// start and each wake-up after, including the wake-ups of a Run that is
// blocked. It must not block. It either arms the proc's next wake-up with a
// non-blocking half (Proc.WakeAfter, Signal.Park, Share.AcquireThen) and
// returns false, or returns true to start Run on a borrowed coroutine or to
// continue the blocked one. Between Runs it may also return false with
// nothing armed, which ends the proc. Run may block. When it returns, the
// proc waits if Run armed a wake-up and ends otherwise, and the coroutine
// goes back to the pool either way; a Run that would go on stepping calls
// Resume itself before it returns. A Run can thus hand a stretch of waits
// to Resume: it arms the first itself, with the state Resume reads to arm
// the rest, and blocks once in Await until Resume returns true. A body that
// only ever blocks in Run answers every Resume with true.
type Runner interface {
	Run(p *Proc)
	Resume(p *Proc) bool
	String() string
}

// Start runs r as the body of a caller-owned process, scheduled to start at
// the current time: the start event runs r's Resume. p must be a zero Proc
// or one of e's procs that has finished: a restarted proc keeps its wake
// generation, so a wake-up queued in its last life carries an older one and
// is dropped as stale. A Wakeup called on it later reaches the new life, so
// whoever restarts a proc must hold the only reference to it. Starting a
// live proc, or one of another engine, panics.
func (e *Engine) Start(p *Proc, r Runner) {
	if p.eng != nil {
		if p.eng != e || !p.dead || p.w != nil {
			panic(fmt.Sprintf("sim: proc %q started twice", p.Name()))
		}
		*p = Proc{wakeGen: p.wakeGen}
	}
	p.run = r
	p.eng = e
	p.prev = e.tail
	if e.tail != nil {
		e.tail.next = p
	} else {
		e.head = p
	}
	e.tail = p
	p.WakeAfter(0)
}

// finish retires p: it is dead to stale wake-ups and leaves the live list.
func (p *Proc) finish() {
	e := p.eng
	p.dead = true
	p.armed = false
	p.parked = false
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		e.head = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		e.tail = p.prev
	}
	p.prev, p.next = nil, nil
}

// end finishes a proc whose Resume armed nothing, which it may do only
// between Runs: a blocked Run could never go on.
func (p *Proc) end() {
	if p.w != nil {
		panic(fmt.Sprintf("sim: proc %q armed no wake-up while its Run is blocked", p.Name()))
	}
	p.finish()
}

// Name returns the diagnostic name: the body's String.
func (p *Proc) Name() string { return p.run.String() }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// arm marks the proc as having a pending wake-up and returns the generation
// token that the matching resume must present.
func (p *Proc) arm() uint64 {
	if p.armed {
		panic(fmt.Sprintf("sim: proc %q armed twice", p.Name()))
	}
	p.armed = true
	p.wakeGen++
	return p.wakeGen
}

// Armed reports whether p has a wake-up armed: it is blocked, or its
// Resume armed one rather than ending it.
func (p *Proc) Armed() bool { return p.armed }

// park arms p with no wake-up event: only a Wakeup or a Share completion
// resumes it.
func (p *Proc) park() {
	p.arm()
	p.parked = true
}

// Await blocks p until the wake-up it armed fires: the blocking half of
// every primitive, whose other half (WakeAfter, Signal.Park,
// Share.AcquireThen) arms it. The waiting coroutine runs the event loop
// itself; only when the baton moves to another process (or the run ends)
// does it switch back to RunUntil's loop, parking until that loop resumes
// it. A proc may block only inside its Run.
func (p *Proc) Await() {
	if !p.armed {
		panic(fmt.Sprintf("sim: proc %q yielding with no pending wake-up", p.Name()))
	}
	if p.killed {
		panic(unwind{}) // a deferred call blocking again while Close unwinds
	}
	if p.w == nil {
		panic(fmt.Sprintf("sim: proc %q blocked on the event loop, outside its Run", p.Name()))
	}
	e := p.eng
	r := e.dispatch(p)
	if r == selfResumed {
		return // baton came straight back, no switch needed
	}
	e.yielded = r
	p.w.yield(struct{}{})
	if p.killed {
		panic(unwind{})
	}
}

// WakeAfter is Sleep's non-blocking half: it arms p's wake-up d from now.
// The event is queued before p is armed, so a delay the engine refuses
// leaves p unarmed.
func (p *Proc) WakeAfter(d Time) {
	ev := p.eng.queueAfter(d)
	ev.proc = p
	ev.gen = p.arm()
}

// Sleep blocks the process for d time units. d == 0 yields the baton and
// resumes after already-queued events at the current time.
func (p *Proc) Sleep(d Time) {
	p.WakeAfter(d)
	p.Await()
}

// Wakeup resumes a parked process: one on a Signal, or in a Share. It must
// be called from the event loop or another process; the wake-up takes effect
// via a zero-delay event so ordering stays deterministic, and from then on
// the proc is no longer parked.
func (p *Proc) Wakeup() {
	if !p.armed || p.dead {
		return
	}
	p.parked = false
	p.eng.scheduleProc(0, p, p.wakeGen)
}

// unwind is the private panic value Engine.Close raises inside a parked
// process to unwind its body.
type unwind struct{}

func (unwind) Error() string { return "sim: process unwound by Engine.Close" }

// Unwinding reports whether a recovered panic value is Engine.Close unwinding
// a parked process. Code that recovers panics inside a process body must
// re-panic such a value so the unwind completes.
func Unwinding(v any) bool {
	_, ok := v.(unwind)
	return ok
}

// worker is a reusable coroutine that runs process bodies one after another.
// Between bodies it sits in the process-wide free list; while running one it
// belongs to that body's Proc.
type worker struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Proc // the process being run, nil while idle
}

// loop is the worker coroutine: run the assigned body, switch back to the
// RunUntil goroutine, wait for the next assignment.
func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	for {
		w.run()
		if !yield(struct{}{}) {
			return // stopped by putWorker
		}
	}
}

// run executes w.p's Run to its end, recovering both Close's unwind and a
// body panic; the latter is handed to switchTo, which re-raises it on the
// RunUntil goroutine. A proc whose Run armed a wake-up waits, holding no
// coroutine; any other ends.
func (w *worker) run() {
	p := w.p
	e := p.eng
	defer func() {
		e.yielded = procExited
		r := recover()
		if r == nil && p.armed {
			return
		}
		p.finish()
		if r != nil && !Unwinding(r) {
			e.panicked = r
		}
	}()
	p.run.Run(p)
}

// maxWorkers bounds the idle worker pool; coroutines returned beyond it end
// instead of staying parked. It sits far above one run's peak (2,287 for
// a 32-node elastic Pagoda fleet, the most of any scheme), so a harness
// running many such cells at once still reuses every coroutine.
const maxWorkers = 1 << 16

// workers is the process-wide idle worker pool, shared by every engine (the
// harness runs engines on several goroutines at once). It is not a
// sync.Pool: a worker the GC dropped would stay parked forever.
var workers struct {
	sync.Mutex
	free []*worker
}

// getWorker takes an idle worker, or starts a new coroutine.
func getWorker() *worker {
	workers.Lock()
	if n := len(workers.free); n > 0 {
		w := workers.free[n-1]
		workers.free[n-1] = nil
		workers.free = workers.free[:n-1]
		workers.Unlock()
		return w
	}
	workers.Unlock()
	w := new(worker)
	w.next, w.stop = iter.Pull(w.loop)
	return w
}

// putWorker returns an idle worker to the pool.
func putWorker(w *worker) {
	w.p = nil
	workers.Lock()
	if len(workers.free) < maxWorkers {
		workers.free = append(workers.free, w)
		w = nil
	}
	workers.Unlock()
	if w != nil {
		w.stop()
	}
}

// switchTo runs p's coroutine (taking one from the pool to start its Run)
// until it switches back to the RunUntil goroutine, leaving the reason in
// e.yielded. The worker of a Run that returned goes back to the pool, and a
// body panic is re-raised here with its original value.
func (e *Engine) switchTo(p *Proc) {
	w := p.w
	if w == nil {
		w = getWorker()
		w.p = p
		p.w = w
		if e.running++; e.running > e.stats.PeakRunning {
			e.stats.PeakRunning = e.running
		}
	}
	w.next()
	if e.yielded != procExited {
		return
	}
	e.running--
	p.w = nil
	putWorker(w)
	if v := e.panicked; v != nil {
		e.panicked = nil
		panic(v)
	}
}

// Close unwinds every process that has not finished — parked on a Signal
// or in a Share, sleeping past the end of the run, or never started — in spawn
// order, and returns their coroutines to the pool, so a finished simulation
// leaves no goroutine behind. It also gives the arrays of its empty delay
// lanes to the next engine that registers delays (RegisterDelay). A proc
// waiting between Runs holds no coroutine and is finished in place; one
// blocked inside its Run unwinds. Each started body unwinds through its
// deferred calls; recover sites inside bodies must re-panic values for which
// Unwinding reports true. On an engine with no live process Close only
// gives back the lane arrays. It must not be called while the engine is
// running, and the engine must not be run afterwards.
func (e *Engine) Close() {
	for p := e.head; p != nil; p = e.head {
		if p.w == nil {
			p.finish() // never started, or between Runs
			continue
		}
		p.killed = true
		p.armed = false // resumed, as dispatch would
		e.switchTo(p)
	}
	e.putLaneArrays()
}
