//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"sync"
)

// Proc is a coroutine-style simulation process. Its body runs on a pooled
// worker coroutine (iter.Pull) and only while it holds the engine's execution
// baton. When it blocks on a simulation primitive (Sleep, Wait, ...) the
// blocking coroutine itself keeps driving the event loop (Engine.dispatch):
// if the next runnable event is its own resume it simply returns, with no
// switch at all. Only a handoff to another process, or the end of the run,
// switches back to the dispatch loop in RunUntil, which resumes the next
// process's coroutine. Exactly one Proc (or the dispatch loop) runs at any
// instant, which makes all simulation state single-threaded.
type Proc struct {
	eng *Engine
	// run is the body, which also names the proc.
	run Runner
	// w is the worker coroutine running the body; nil until the first
	// resume and again once the body has returned.
	w *worker
	// wakeGen guards against double wake-ups: a blocked proc records the
	// generation it is waiting on, and stale resume events are dropped.
	wakeGen uint64
	// prev and next link the engine's live processes in spawn order.
	prev, next *Proc
	// operand and stage describe the chain the proc is blocked in (Chain);
	// stage is zero outside a chain. They sit in what would otherwise be
	// padding, so a chain costs the proc no space.
	operand uint32
	stage   uint8
	dead    bool
	// killed asks the parked body to unwind (Engine.Close).
	killed bool
	// armed reports whether some event/signal is due to resume this proc.
	armed bool
	// parked reports the proc is blocked with no scheduled wake-up event
	// (Block/Signal.Wait, or a chain waiting in a Share) — only an explicit
	// Wakeup or a Share completion can resume it.
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
// keeps nothing the closure captured alive.
func (s *spawned) Run(p *Proc) {
	body := s.body
	s.body = nil
	body(p)
}

func (s *spawned) String() string { return s.name }

// Runner is a process body that names itself. A type that embeds the Proc
// running it starts with Engine.Start, so one allocation covers both, and
// its String is formatted only when the name is read: by Proc.Name,
// BlockedProcs and the engine's panic messages.
type Runner interface {
	Run(p *Proc)
	String() string
}

// Start runs r as the body of a caller-owned process, scheduled to start at
// the current time. p must be a zero Proc, never started before (procs are
// not reused, so a stale Wakeup stays a no-op on a dead proc).
func (e *Engine) Start(p *Proc, r Runner) {
	e.register(p, r)
	gen := p.arm()
	e.scheduleProc(0, p, gen)
}

// StartOn registers r as the body of a caller-owned process that is already
// parked on sig, exactly as if the body's first act had been sig.Wait(p): it
// queues no start event and takes no coroutine. When sig wakes the proc, the
// body starts from the top, in the queue slot that Wakeup takes. The body
// must therefore begin the way a Mesa-style waiter resumes, re-checking the
// predicate it waits on before anything else. p must be a zero Proc, as for
// Start; Close finishes a proc that was never woken without starting it.
func (e *Engine) StartOn(sig *Signal, p *Proc, r Runner) {
	e.register(p, r)
	sig.enqueue(p)
	p.arm()
	p.parked = true
}

// Retire finishes a proc begun with StartOn whose body has not started, so
// that the body never runs, and reports whether it did. A wake-up already
// queued for it is dropped. A proc whose body has started, or that was
// begun with Start, is left alone. The retired proc stays queued on its
// signal, where waking it is a no-op, so a Pulse there could be spent on
// it: retire only the waiters of a signal that is not pulsed afterwards.
func (p *Proc) Retire() bool {
	if p.w != nil || !p.parked {
		return false
	}
	p.finish()
	return true
}

// register links a zero Proc into the engine's live list with r as its body.
func (e *Engine) register(p *Proc, r Runner) {
	if p.eng != nil {
		panic(fmt.Sprintf("sim: proc %q started twice", p.Name()))
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

// yield releases the baton and blocks until resumed. The caller must have
// armed a wake-up beforehand. The yielding coroutine runs the event loop
// itself; only when the baton moves to another process (or the run ends)
// does it switch back to RunUntil's loop, parking until that loop resumes it.
func (p *Proc) yield() {
	if !p.armed {
		panic(fmt.Sprintf("sim: proc %q yielding with no pending wake-up", p.Name()))
	}
	if p.killed {
		panic(unwind{}) // a deferred call blocking again while Close unwinds
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

// Sleep blocks the process for d time units. d == 0 yields the baton and
// resumes after already-queued events at the current time.
func (p *Proc) Sleep(d Time) {
	gen := p.arm()
	p.eng.scheduleProc(d, p, gen)
	p.yield()
}

// Block parks the process indefinitely until another party calls Wakeup.
// Prefer Signal for most uses.
func (p *Proc) Block() {
	p.arm()
	p.parked = true
	p.yield()
	p.parked = false
}

// Wakeup resumes a process parked with Block. It must be called from the
// event loop or another process; the wake-up takes effect via a zero-delay
// event so ordering stays deterministic.
func (p *Proc) Wakeup() {
	if !p.armed || p.dead {
		return
	}
	p.eng.scheduleProc(0, p, p.wakeGen)
}

// Chain blocks p once for a chain of stages that run on the event loop
// rather than in p's body, saving the coroutine switches of blocking once
// per stage. p's Runner must implement Step: it runs every stage with the
// wake generation p blocked under, the first one inline here, and reads the
// chain's stage and operand with Stage. A stage either queues a request with
// Share.Chain, whose completion queues the next stage in the queue slot a
// Wakeup of p would take, or ends the chain with ResumeAfter, p's single
// resume. stage must not be zero.
func (p *Proc) Chain(stage uint8, operand uint32) {
	if stage == 0 {
		panic(fmt.Sprintf("sim: proc %q chained at stage 0", p.Name()))
	}
	p.stage, p.operand = stage, operand
	gen := p.arm()
	p.run.(Step).Step(gen)
	p.yield()
}

// Stage returns the stage and operand of the chain p is blocked in; the
// stage is zero outside a chain.
func (p *Proc) Stage() (stage uint8, operand uint32) { return p.stage, p.operand }

// ResumeAfter ends p's chain: p resumes after d, from the Chain call that
// blocked it, exactly as if it had slept for d.
func (p *Proc) ResumeAfter(d Time) {
	if p.stage == 0 {
		panic(fmt.Sprintf("sim: proc %q resumed outside a chain", p.Name()))
	}
	p.stage = 0
	p.parked = false
	p.eng.scheduleProc(d, p, p.wakeGen)
}

// shareDone is a Share's completion of p's request. A chained proc's next
// stage is queued; any other proc is woken. Either takes the same queue
// slot.
func (p *Proc) shareDone() {
	if p.stage == 0 {
		p.Wakeup()
		return
	}
	if !p.armed || p.dead {
		return
	}
	p.parked = false
	p.eng.scheduleStep(p)
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

// run executes w.p's body to its end, recovering both Close's unwind and a
// body panic; the latter is handed to switchTo, which re-raises it on the
// RunUntil goroutine.
func (w *worker) run() {
	p := w.p
	e := p.eng
	defer func() {
		r := recover()
		p.finish()
		e.yielded = procExited
		if r != nil && !Unwinding(r) {
			e.panicked = r
		}
	}()
	p.run.Run(p)
}

// maxWorkers bounds the idle worker pool; coroutines returned beyond it end
// instead of staying parked. It sits above the ~50k processes a 32-node
// Pagoda fleet keeps live at its peak, so such runs reuse every coroutine.
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

// switchTo runs p's coroutine (starting one on the first resume) until it
// switches back to the RunUntil goroutine, leaving the reason in e.yielded. A
// finished body's worker goes back to the pool, and a body panic is re-raised
// here with its original value.
func (e *Engine) switchTo(p *Proc) {
	w := p.w
	if w == nil {
		w = getWorker()
		w.p = p
		p.w = w
		p.parked = false // a StartOn proc leaves its signal by starting
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

// Close unwinds every process that has not finished — parked in Block or
// Signal.Wait, sleeping past the end of the run, or never started — in spawn
// order, and returns their coroutines to the pool, so a finished simulation
// leaves no goroutine behind. Each started body unwinds through its deferred
// calls; recover sites inside bodies must re-panic values for which
// Unwinding reports true. Close is a no-op on an engine with no live
// process. It must not be called while the engine is running, and the
// engine must not be run afterwards.
func (e *Engine) Close() {
	for p := e.head; p != nil; p = e.head {
		if p.w == nil {
			p.finish() // never started
			continue
		}
		p.killed = true
		p.armed = false // resumed, as dispatch would
		e.switchTo(p)
	}
}
