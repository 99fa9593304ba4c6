package sim

import (
	"math/rand"
	"testing"
)

// TestEventOrderProperty drives seeded random programs that mix
// Schedule(0)/Schedule(d), Timer.ResetAt(Now)/ResetAt(Now+d),
// Sleep(0)/Sleep(d), Block with Wakeup (doubled at times), Signal.Wait with
// Pulse, and RunUntil deadlines that fall before, at and after the clock. It
// asserts that every callback and resume fires exactly when it was
// scheduled for, in the order of (time, scheduling call), where a timer
// reset and a wake-up count as fresh calls; that no run fires past its
// deadline or moves the clock backward; and that every callback, armed
// timer and sleeping proc has fired once the queue drains.
func TestEventOrderProperty(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		newOrderModel(t, seed).run()
	}
}

// orderModel is one random program and the firings it predicts.
type orderModel struct {
	t        *testing.T
	seed     int64
	e        *Engine
	rng      *rand.Rand
	budget   int   // scheduling calls left
	calls    int64 // scheduling calls made so far
	last     firing
	deadline Time
	// pending counts scheduled callbacks that have not fired.
	pending int
	timers  []*modelTimer
	procs   []*modelProc
	sig     Signal
	waiting []*modelProc // the model of sig's waiters, oldest first
}

// firing is the key an event fires under: its time and scheduling call.
type firing struct {
	at   Time
	call int64
}

type modelTimer struct {
	tm    *Timer
	due   firing
	armed bool
}

type procState int

const (
	running procState = iota
	sleeping
	blocked // in Block, not yet woken
	woken   // in Block, a wake-up queued
	waiting // in sig.Wait
	exited
)

type modelProc struct {
	p     *Proc
	due   firing
	state procState
}

func newOrderModel(t *testing.T, seed int64) *orderModel {
	return &orderModel{t: t, seed: seed, e: New(), rng: rand.New(rand.NewSource(seed)), budget: 400, deadline: Infinity}
}

// call numbers a scheduling call at delay d from now.
func (m *orderModel) call(d Time) firing {
	m.calls++
	m.budget--
	return firing{m.e.Now() + d, m.calls}
}

// fire checks one firing against its predicted key.
func (m *orderModel) fire(due firing) {
	m.t.Helper()
	now := m.e.Now()
	switch {
	case now != due.at:
		m.t.Fatalf("seed %d: call %d fired at %v, scheduled for %v", m.seed, due.call, now, due.at)
	case now > m.deadline:
		m.t.Fatalf("seed %d: call %d fired at %v, past the run's deadline %v", m.seed, due.call, now, m.deadline)
	case due.at < m.last.at || due.at == m.last.at && due.call <= m.last.call:
		m.t.Fatalf("seed %d: call %d (t=%v) fired after call %d (t=%v)", m.seed, due.call, due.at, m.last.call, m.last.at)
	}
	m.last = due
}

// delay draws a delay with plenty of ties: zero half the time.
func (m *orderModel) delay() Time {
	if m.rng.Intn(2) == 0 {
		return 0
	}
	return Time(m.rng.Intn(6)) / 2
}

// act makes up to three random scheduling calls from the current context:
// an event callback, a process body or the driver between runs.
func (m *orderModel) act() {
	for n := m.rng.Intn(4); n > 0 && m.budget > 0; n-- {
		switch m.rng.Intn(7) {
		case 0, 1:
			m.schedule(m.delay())
		case 2, 4:
			m.resetTimer(func(mt *modelTimer) { mt.tm.ResetAt(m.e.Now()) }, 0)
		case 3:
			d := m.delay()
			m.resetTimer(func(mt *modelTimer) { mt.tm.ResetAt(m.e.Now() + d) }, d)
		case 5:
			m.wakeup()
		case 6:
			if len(m.waiting) > 0 {
				mp := m.waiting[0]
				m.waiting = m.waiting[1:]
				mp.due = m.call(0)
				mp.state = woken
				m.sig.Pulse()
			}
		}
	}
}

func (m *orderModel) schedule(d Time) {
	due := m.call(d)
	m.pending++
	m.e.Schedule(d, func() {
		m.fire(due)
		m.pending--
		m.act()
	})
}

func (m *orderModel) resetTimer(reset func(*modelTimer), d Time) {
	mt := m.timers[m.rng.Intn(len(m.timers))]
	mt.due = m.call(d)
	mt.armed = true
	reset(mt)
}

// wakeup wakes a proc parked in Block. Waking one already woken is a no-op:
// its queued wake-up keeps its place and the second one goes stale.
func (m *orderModel) wakeup() {
	for _, mp := range m.procs {
		switch mp.state {
		case blocked:
			mp.due = m.call(0)
			mp.state = woken
			mp.p.Wakeup()
			return
		case woken:
			if m.rng.Intn(2) == 0 {
				mp.p.Wakeup()
				return
			}
		}
	}
}

// body is a process that acts, then blocks one of four ways, until the
// budget runs out.
func (m *orderModel) body(mp *modelProc) func(*Proc) {
	return func(p *Proc) {
		for {
			m.fire(mp.due)
			mp.state = running
			m.act()
			if m.budget <= 0 {
				mp.state = exited
				return
			}
			switch m.rng.Intn(4) {
			case 0, 1:
				d := m.delay()
				mp.due = m.call(d)
				mp.state = sleeping
				p.Sleep(d)
			case 2:
				mp.state = blocked
				block(p)
			case 3:
				mp.state = waiting
				m.waiting = append(m.waiting, mp)
				m.sig.Wait(p)
			}
		}
	}
}

func (m *orderModel) run() {
	defer m.e.Close()
	for i := 0; i < 3; i++ {
		mt := &modelTimer{}
		mt.tm = NewTimer(m.e, func() {
			m.fire(mt.due)
			mt.armed = false
			m.act()
		})
		m.timers = append(m.timers, mt)
	}
	for i := 0; i < 4; i++ {
		mp := &modelProc{due: m.call(0), state: sleeping}
		mp.p = m.e.Spawn("model", m.body(mp))
		m.procs = append(m.procs, mp)
	}
	m.schedule(1)
	for m.e.Pending() > 0 {
		before := m.e.Now()
		m.deadline = before + Time(m.rng.Intn(9)-3)/2
		m.e.RunUntil(m.deadline)
		now := m.e.Now()
		if now < before {
			m.t.Fatalf("seed %d: RunUntil(%v) moved the clock back from %v to %v", m.seed, m.deadline, before, now)
		}
		if m.e.Pending() > 0 && now != max(before, m.deadline) {
			m.t.Fatalf("seed %d: RunUntil(%v) from %v left the clock at %v with events pending", m.seed, m.deadline, before, now)
		}
		m.deadline = Infinity
		m.act() // calls from outside any event, between runs
	}
	if m.pending != 0 {
		m.t.Fatalf("seed %d: %d callbacks never fired", m.seed, m.pending)
	}
	for _, mt := range m.timers {
		if mt.armed {
			m.t.Fatalf("seed %d: timer armed for call %d never fired", m.seed, mt.due.call)
		}
	}
	for _, mp := range m.procs {
		if mp.state == sleeping || mp.state == woken || mp.state == running {
			m.t.Fatalf("seed %d: proc in state %d never resumed for call %d", m.seed, mp.state, mp.due.call)
		}
	}
}
