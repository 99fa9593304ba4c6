package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestDelayLanesKeepOrder runs seeded random programs twice, once with
// fixed delays registered and once without, and requires the same fired
// sequence of (at, seq, payload) and the same Stats, but for heap pushes
// moving to DelayPushes one for one. The programs mix Sleep, staged waits
// that a proc's Resume arms (WakeAfter, Share.AcquireThen, and WakeAfter
// again back into Run), Schedule, timers, Share requests
// and stale wake-ups (a sleeping proc woken early leaves its lane entry
// behind), and run under RunUntil deadlines that fall between lane heads.
// Their delays include zero and one far below the clock's ulp, which must
// take the same-instant lane, and each program registers one delay
// halfway through, while events at that delay may sit in the heap.
func TestDelayLanesKeepOrder(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		plain := runDelayProgram(seed, false)
		laned := runDelayProgram(seed, true)
		if !slices.Equal(plain.fired, laned.fired) {
			i := 0
			for i < min(len(plain.fired), len(laned.fired)) && plain.fired[i] == laned.fired[i] {
				i++
			}
			t.Fatalf("seed %d: fired sequences part at firing %d of %d/%d", seed, i, len(plain.fired), len(laned.fired))
		}
		ps, ls := plain.e.Stats(), laned.e.Stats()
		if ls.DelayPushes == 0 {
			t.Fatalf("seed %d: no event took a delay lane", seed)
		}
		if ps.DelayPushes != 0 || ps.HeapPushes != ls.HeapPushes+ls.DelayPushes {
			t.Fatalf("seed %d: HeapPushes %d without lanes, %d + %d DelayPushes with them", seed,
				ps.HeapPushes, ls.HeapPushes, ls.DelayPushes)
		}
		ls.HeapPushes, ls.DelayPushes = ps.HeapPushes, 0
		if ps != ls {
			t.Fatalf("seed %d: Stats %+v without lanes, %+v with them", seed, ps, ls)
		}
	}
}

// delayChoices are the delays the programs draw: the registered ones, zero,
// ties at small multiples, and 1e-9, below the ulp of the large clock half
// the programs start at.
var delayChoices = []Time{0, 0, 0.5, 1, 1.5, 3, 368, 46, 1e-9, 2.25}

// registered are the delays the laned run registers up front; the refused
// values must create no lane. 2.25 is registered halfway through.
var registered = []Time{math.NaN(), 0, -1, math.Inf(1), math.Inf(-1), 0.5, 1.5, 3, 368, 46, 1e-9, 368}

type delayProgram struct {
	e      *Engine
	rng    *rand.Rand
	lanes  bool
	budget int
	fired  []firedKey
	sig    Signal
	share  *Share
	timers []*Timer
	procs  []*delayProc
}

// firedKey is one firing: the event's key and what it carried.
type firedKey struct {
	at      Time
	seq     int64
	payload int
}

type delayProc struct {
	proc  Proc
	m     *delayProgram
	id    int
	state procState
	// stage is the staged wait the proc's Resume arms next; zero outside
	// one.
	stage uint8
}

func runDelayProgram(seed int64, lanes bool) *delayProgram {
	m := &delayProgram{e: New(), rng: rand.New(rand.NewSource(seed)), lanes: lanes, budget: 600}
	defer m.e.Close()
	if lanes {
		for _, d := range registered {
			m.e.RegisterDelay(d)
		}
	}
	if seed%2 == 0 {
		// Start at a clock whose ulp (2^-13) is far above 1e-9.
		m.e.ScheduleAt(1<<40, func() {})
		m.e.Run()
	}
	m.share = NewShare(m.e, 2, 1)
	for i := 0; i < 3; i++ {
		id := 100 + i
		m.timers = append(m.timers, NewTimer(m.e, func() { m.record(id); m.act() }))
	}
	for i := 0; i < 4; i++ {
		dp := &delayProc{m: m, id: i}
		m.procs = append(m.procs, dp)
		m.e.Start(&dp.proc, dp)
	}
	for m.e.Pending() > 0 {
		// A deadline off the grid of the drawn delays falls between lane
		// heads, or before the next event at all.
		m.e.RunUntil(m.e.Now() + m.rng.Float64()*400)
		m.act()
	}
	return m
}

// record notes the firing in progress: its entry was returned to the pool
// just before its payload ran, key intact.
func (m *delayProgram) record(payload int) {
	ev := m.e.pool[len(m.e.pool)-1]
	if ev.at != m.e.now {
		panic("sim: fired entry is not the pool's last")
	}
	m.fired = append(m.fired, firedKey{ev.at, ev.seq, payload})
}

func (m *delayProgram) delay() Time { return delayChoices[m.rng.Intn(len(delayChoices))] }

// act makes up to three random scheduling calls, drawing the same numbers
// in both runs.
func (m *delayProgram) act() {
	for n := m.rng.Intn(4); n > 0 && m.budget > 0; n-- {
		m.budget--
		switch m.rng.Intn(7) {
		case 0, 1:
			id := 200 + m.rng.Intn(50)
			m.e.Schedule(m.delay(), func() { m.record(id); m.act() })
		case 2:
			m.timers[m.rng.Intn(len(m.timers))].ResetAt(m.e.Now() + m.delay())
		case 3:
			// Waking a sleeper early leaves its sleep's entry stale.
			dp := m.procs[m.rng.Intn(len(m.procs))]
			if dp.state == sleeping {
				dp.proc.Wakeup()
			}
		case 4:
			m.sig.Pulse()
		case 5:
			if m.lanes && m.budget < 300 {
				m.e.RegisterDelay(2.25)
			}
		case 6:
			m.sig.Broadcast()
		}
	}
}

func (dp *delayProc) Run(p *Proc) {
	m := dp.m
	for blocked := true; m.budget > 0; {
		dp.state = running
		if blocked {
			m.record(dp.id)
		}
		m.act()
		switch blocked = true; m.rng.Intn(5) {
		case 0, 1:
			dp.state = sleeping
			p.Sleep(m.delay())
		case 2:
			dp.state = waiting
			m.sig.Wait(p)
		case 3:
			if blocked = m.share.AcquireThen(p, float64(m.rng.Intn(3))); blocked {
				p.Await()
			}
		case 4:
			dp.stage = 1
			dp.step()
			p.Await()
		}
	}
	dp.state = exited
}

func (dp *delayProc) String() string { return "delay-proc" }

// Resume runs the next stage of a staged wait, and otherwise starts or
// continues Run.
func (dp *delayProc) Resume(*Proc) bool {
	if dp.stage != 0 {
		dp.step()
		return false
	}
	return true
}

// step arms the next wait of a staged one: a delay, a share request, and a
// delay back into Run. Run arms the first inline, not from an event.
func (dp *delayProc) step() {
	m, p := dp.m, &dp.proc
	if dp.stage != 1 {
		m.record(10 + dp.id)
	}
	m.act()
	switch dp.stage {
	case 1:
		dp.stage = 2
		p.WakeAfter(m.delay())
	case 2:
		dp.stage = 3
		if m.share.AcquireThen(p, float64(m.rng.Intn(3))) {
			return
		}
		fallthrough
	default:
		dp.stage = 0
		p.WakeAfter(m.delay())
	}
}

// TestRegisterDelayRefusesBadDelays: a delay that is not positive and
// finite makes no lane, a repeat makes none either, and a delay past the
// bound uses the heap.
func TestRegisterDelayRefusesBadDelays(t *testing.T) {
	e := New()
	for _, d := range []Time{math.NaN(), 0, math.Copysign(0, -1), -3, math.Inf(1), math.Inf(-1)} {
		e.RegisterDelay(d)
	}
	if e.ndelays != 0 {
		t.Fatalf("%d lanes from refused delays: %v", e.ndelays, e.delays[:e.ndelays])
	}
	for d := 1; d <= maxDelayLanes+2; d++ {
		e.RegisterDelay(Time(d))
		e.RegisterDelay(Time(d))
	}
	if e.ndelays != maxDelayLanes || e.delays[maxDelayLanes-1] != maxDelayLanes {
		t.Fatalf("lanes %v, want 1..%d", e.delays[:e.ndelays], maxDelayLanes)
	}
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(1)
		p.Sleep(maxDelayLanes + 1)
	})
	e.Run()
	if st := e.Stats(); st.DelayPushes != 1 || st.HeapPushes != 1 {
		t.Fatalf("DelayPushes %d, HeapPushes %d; want 1 and 1", st.DelayPushes, st.HeapPushes)
	}
}
