package sim

import (
	"math"
	"slices"
	"testing"
	"unsafe"
)

// chainer is a process that repeats one three-stage op: w1 units on s1, w2
// units on s2, then a sleep of lat. Chained, its Run arms the first stage
// and blocks once per op, and its Resume runs the stages on the event loop;
// otherwise it blocks per stage.
type chainer struct {
	proc    Proc
	s1, s2  *Share
	w1, w2  float64
	lat     Time
	rounds  int
	chained bool
	// stage is the chained op's next stage, zero outside one.
	stage uint8
	done  []Time
	// onStep, when set, runs at the start of every chained stage.
	onStep func()
}

// The chainer's stages.
const (
	atS1 uint8 = iota + 1
	atS2
	atLat
)

func (c *chainer) Run(p *Proc) {
	for i := 0; i < c.rounds; i++ {
		if c.chained {
			c.stage = atS1
			c.step()
			p.Await()
		} else {
			c.s1.Acquire(p, c.w1)
			c.s2.Acquire(p, c.w2)
			p.Sleep(c.lat)
		}
		c.done = append(c.done, p.Now())
	}
}

func (c *chainer) String() string { return "chainer" }

// Resume runs the next stage of a chained op, and otherwise starts or
// continues Run.
func (c *chainer) Resume(*Proc) bool {
	if c.stage != 0 {
		c.step()
		return false
	}
	return true
}

// step arms the wait of the op's next stage, falling through a stage with
// no work; the last one's wake-up, at stage zero, returns to Run.
func (c *chainer) step() {
	if c.onStep != nil {
		c.onStep()
	}
	switch c.stage {
	case atS1:
		c.stage = atS2
		if c.s1.AcquireThen(&c.proc, c.w1) {
			return
		}
		fallthrough
	case atS2:
		c.stage = atLat
		if c.s2.AcquireThen(&c.proc, c.w2) {
			return
		}
	}
	c.stage = 0
	c.proc.WakeAfter(c.lat)
}

// chainRun runs eight contending chainers, including zero-work stages, and
// returns their completion instants and the engine's counters.
func chainRun(chained bool) ([][]Time, Stats) {
	e := New()
	defer e.Close()
	s1, s2 := NewShare(e, 4, 1), NewShare(e, 10, math.Inf(1))
	var cs []*chainer
	for i := 0; i < 8; i++ {
		c := &chainer{s1: s1, s2: s2, w1: float64(1 + i%3), w2: float64(i%4) * 2.5,
			lat: Time(i%2) * 3, rounds: 5, chained: chained}
		e.Schedule(Time(i)/3, func() { e.Start(&c.proc, c) })
		cs = append(cs, c)
	}
	e.Run()
	var done [][]Time
	for _, c := range cs {
		done = append(done, c.done)
	}
	return done, e.Stats()
}

// TestChainMatchesBlockingStages: an op whose stages a proc's Resume chains
// on the event loop completes at exactly the instant the same stages
// charged one blocking call at a time would, firing the same events, with
// one resume per op instead of one per stage.
func TestChainMatchesBlockingStages(t *testing.T) {
	got, chained := chainRun(true)
	want, blocking := chainRun(false)
	for i := range want {
		if !slices.EqualFunc(got[i], want[i], sameBits) {
			t.Fatalf("chainer %d done at %v, blocking stages at %v", i, got[i], want[i])
		}
	}
	if chained.Events != blocking.Events {
		t.Errorf("Events = %d chained, %d blocking", chained.Events, blocking.Events)
	}
	resumes := func(s Stats) int64 { return s.Handoffs + s.SelfResumes }
	if got, want := resumes(chained), resumes(blocking)-chained.Steps; got != want || chained.Steps == 0 {
		t.Errorf("chained: %d resumes and %d steps, want the %d blocking resumes minus the steps", got, chained.Steps, resumes(blocking))
	}
}

// taper runs a list of ops, each a request on its share (work > 0) or a
// sleep (work <= 0, for -work), over several rounds. Chained, its Run arms
// the first op and blocks once per round, and its Resume arms each later
// one with WakeAfter or Share.AcquireThen.
type taper struct {
	proc    Proc
	s       *Share
	ops     []float64
	pos     int
	rounds  int
	chained bool
	// replaying is set while Resume has ops of the round left to arm.
	replaying bool
	done      []Time
}

func (c *taper) Run(p *Proc) {
	for i := 0; i < c.rounds; i++ {
		if c.chained {
			c.pos = 0
			c.step()
			p.Await()
		} else {
			for _, w := range c.ops {
				if w > 0 {
					c.s.Acquire(p, w)
				} else {
					p.Sleep(-w)
				}
			}
		}
		c.done = append(c.done, p.Now())
	}
}

func (c *taper) String() string { return "taper" }

func (c *taper) Resume(*Proc) bool {
	if c.replaying {
		c.step()
		return false
	}
	return true
}

// step arms the next op's wait; the last op's wake-up returns to Run.
func (c *taper) step() {
	w := c.ops[c.pos]
	c.pos++
	c.replaying = c.pos < len(c.ops)
	if w > 0 {
		c.s.AcquireThen(&c.proc, w)
	} else {
		c.proc.WakeAfter(-w)
	}
}

// taperRun runs six contending tapers whose op lists end in a request or in
// a sleep, including zero-length sleeps.
func taperRun(chained bool) ([][]Time, Stats) {
	e := New()
	defer e.Close()
	s := NewShare(e, 3, 1)
	var cs []*taper
	for i := 0; i < 6; i++ {
		ops := []float64{float64(1 + i%3), -float64(i % 2), 2.5, -4}
		if i%2 == 0 {
			ops = append(ops, 0.75+float64(i))
		}
		c := &taper{s: s, ops: ops, rounds: 4, chained: chained}
		e.Schedule(Time(i)/4, func() { e.Start(&c.proc, c) })
		cs = append(cs, c)
	}
	e.Run()
	var done [][]Time
	for _, c := range cs {
		done = append(done, c.done)
	}
	return done, e.Stats()
}

// TestSteppedOpsMatchBlockingOps: a round of several ops, each armed by a
// proc's Resume with WakeAfter or Share.AcquireThen, the last one
// waking Run, finishes at exactly the instant the ops charged one blocking
// call at a time would, queueing the same events in the same slots; every
// resume between two ops becomes a step.
func TestSteppedOpsMatchBlockingOps(t *testing.T) {
	got, chained := taperRun(true)
	want, blocking := taperRun(false)
	for i := range want {
		if !slices.EqualFunc(got[i], want[i], sameBits) {
			t.Fatalf("taper %d done at %v, blocking ops at %v", i, got[i], want[i])
		}
	}
	same := func(s Stats) Stats {
		s.Handoffs, s.SelfResumes, s.Steps = 0, 0, 0
		return s
	}
	if same(chained) != same(blocking) {
		t.Errorf("Stats = %+v chained, %+v blocking: only resumes may become steps", chained, blocking)
	}
	moves := func(s Stats) int64 { return s.Handoffs + s.SelfResumes + s.Steps }
	if moves(chained) != moves(blocking) || chained.Steps == 0 {
		t.Errorf("resumes+steps = %d chained (%d steps), %d blocking", moves(chained), chained.Steps, moves(blocking))
	}
}

// TestChainPendingStageIsNotBlocked: a chained proc is listed by
// BlockedProcs while it waits in a share, as an Acquire waiter is, and not
// once the wake-up that runs its next stage is queued. Two chainers finish
// their s1 work together; while the first one's stage runs, the second's
// wake-up is queued.
func TestChainPendingStageIsNotBlocked(t *testing.T) {
	e := New()
	t.Cleanup(e.Close)
	s1, s2 := NewShare(e, 4, 1), NewShare(e, 1, 1)
	var seen [][]string
	var cs [2]*chainer
	for i := range cs {
		cs[i] = &chainer{s1: s1, s2: s2, w1: 2, w2: 1, rounds: 1, chained: true}
		cs[i].onStep = func() { seen = append(seen, e.BlockedProcs()) }
		e.Start(&cs[i].proc, cs[i])
	}
	e.RunUntil(1)
	if got := e.BlockedProcs(); !slices.Equal(got, []string{"chainer", "chainer"}) {
		t.Fatalf("waiting in s1: BlockedProcs = %v, want both chainers", got)
	}
	e.Run()
	// The first stages run inline in Run, the second chainer's while the
	// first waits in s1. s1 serves both at t=2: the first one's stage runs
	// with the second's still queued, and the second's while the first
	// waits in s2. s2 serves both at t=4: neither stage runs while the
	// other waits in a share.
	want := [][]string{{}, {"chainer"}, {}, {"chainer"}, {}, {}}
	if !slices.EqualFunc(seen, want, func(a, b []string) bool { return slices.Equal(a, b) }) {
		t.Fatalf("BlockedProcs at each stage = %q, want %q", seen, want)
	}
}

// TestHotStructSizes pins the engine's per-event, per-proc and per-request
// structs: the event payload is one interface, and a proc keeps no staged
// wait's state, which its Runner holds.
func TestHotStructSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"event", unsafe.Sizeof(event{}), 56},
		{"Proc", unsafe.Sizeof(Proc{}), 64},
		{"shareReq", unsafe.Sizeof(shareReq{}), 16},
	} {
		if c.got != c.want {
			t.Errorf("sizeof(%s) = %d, want %d", c.name, c.got, c.want)
		}
	}
}
