package sim

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// looper is a process that repeats one round: a sleep, a request on a
// share, and a token taken from a gate, then, every third round, an opaque
// body that blocks twice. Blocking, its Run is the whole loop and its
// Resume hands it every wake-up. Stepped, its Resume runs the round on the
// event loop with the primitives' non-blocking halves, and its Run is the
// opaque body, after which it calls Resume itself to go on stepping.
type looper struct {
	proc    Proc
	env     *loopEnv
	d, w    float64
	rounds  int
	stepped bool
	// i is the round and state the point in it of the stepped loop; inRun
	// is set while the opaque body runs, blocked or not.
	i     int
	state uint8
	inRun bool
	done  []Time
	// unwound records that Close unwound the opaque body.
	unwound bool
}

// loopEnv is what the loopers contend for.
type loopEnv struct {
	share  *Share
	gate   Signal
	tokens int
}

// The stepped loop's states: each is a point at which a round waits.
const (
	lpSleep uint8 = iota
	lpAcquire
	lpGate
	lpDone
)

func (l *looper) String() string { return "looper" }

func (l *looper) Run(p *Proc) {
	if l.stepped {
		for {
			l.inRun = true
			l.opaque(p)
			l.inRun = false
			if !l.Resume(p) {
				return
			}
		}
	}
	for i := 0; i < l.rounds; i++ {
		p.Sleep(l.d)
		l.env.share.Acquire(p, l.w)
		for l.env.tokens == 0 {
			l.env.gate.Wait(p)
		}
		l.env.tokens--
		if i%3 == 2 {
			l.opaque(p)
		}
		l.done = append(l.done, p.Now())
	}
}

func (l *looper) opaque(p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			l.unwound = Unwinding(r)
			panic(r)
		}
	}()
	p.Sleep(l.d / 2)
	p.Sleep(0)
}

func (l *looper) Resume(p *Proc) bool {
	if !l.stepped || l.inRun {
		return true // a wake-up of the blocked loop or opaque body
	}
	for {
		switch l.state {
		case lpSleep:
			if l.i == l.rounds {
				return false
			}
			l.state = lpAcquire
			p.WakeAfter(l.d)
			return false
		case lpAcquire:
			l.state = lpGate
			if l.env.share.AcquireThen(p, l.w) {
				return false
			}
		case lpGate:
			if l.env.tokens == 0 {
				l.env.gate.Park(p)
				return false
			}
			l.env.tokens--
			l.state = lpDone
			if l.i%3 == 2 {
				return true
			}
		case lpDone:
			l.done = append(l.done, p.Now())
			l.i++
			l.state = lpSleep
		}
	}
}

// loopResult is what a run of loopers is compared on.
type loopResult struct {
	done  [][]Time
	busy  float64
	stats Stats
}

// loopRun starts eight loopers, some with zero-work requests, and a feeder
// that hands the gate a token at a time, and runs them until deadline.
func loopRun(stepped bool, deadline Time) (*Engine, []*looper, loopResult) {
	e := New()
	env := &loopEnv{share: NewShare(e, 3, 1)}
	var ls []*looper
	for i := 0; i < 8; i++ {
		l := &looper{env: env, d: float64(1+i%4) * 1.5, w: float64(i%3) * 2,
			rounds: 7, stepped: stepped}
		e.Schedule(Time(i)/4, func() { e.Start(&l.proc, l) })
		ls = append(ls, l)
	}
	e.Spawn("feeder", func(p *Proc) {
		for i := 0; i < 8*7; i++ {
			p.Sleep(0.75)
			env.tokens++
			env.gate.Pulse()
		}
	})
	e.RunUntil(deadline)
	res := loopResult{busy: env.share.Integrals(), stats: e.Stats()}
	for _, l := range ls {
		res.done = append(res.done, l.done)
	}
	return e, ls, res
}

// TestSteppedMatchesBlocking: procs that run their loop stepped, in their
// Resume on the event loop, and borrow a coroutine only for an opaque body
// end every round at the same instant, to the bit, as the same loop
// blocking in its Run; the share's busy integral and the event counts are
// the same too, every resume the steps save becomes a step, and the stepped
// run holds fewer coroutines at its peak. Every proc finishes.
func TestSteppedMatchesBlocking(t *testing.T) {
	eb, _, want := loopRun(false, Infinity)
	es, _, got := loopRun(true, Infinity)
	defer eb.Close()
	defer es.Close()
	for i := range want.done {
		if !slices.Equal(got.done[i], want.done[i]) || len(want.done[i]) != 7 {
			t.Fatalf("looper %d ends rounds at %v stepped, %v blocking", i, got.done[i], want.done[i])
		}
	}
	if math.Float64bits(got.busy) != math.Float64bits(want.busy) {
		t.Errorf("share busy integral %v stepped, %v blocking", got.busy, want.busy)
	}
	g, w := got.stats, want.stats
	if g.Events != w.Events || g.LaneEvents != w.LaneEvents || g.HeapPushes != w.HeapPushes ||
		g.Rekeys != w.Rekeys || g.PeakPending != w.PeakPending {
		t.Errorf("Stats %+v stepped, %+v blocking", g, w)
	}
	if g.Handoffs+g.SelfResumes+g.Steps != w.Handoffs+w.SelfResumes+w.Steps {
		t.Errorf("resumes+steps %d stepped, %d blocking", g.Handoffs+g.SelfResumes+g.Steps, w.Handoffs+w.SelfResumes+w.Steps)
	}
	if w.Steps != 0 || g.Steps == 0 || g.Handoffs >= w.Handoffs {
		t.Errorf("steps %d and handoffs %d stepped, %d and %d blocking: the loop did not step", g.Steps, g.Handoffs, w.Steps, w.Handoffs)
	}
	if g.PeakRunning >= w.PeakRunning {
		t.Errorf("PeakRunning %d stepped, %d blocking", g.PeakRunning, w.PeakRunning)
	}
	if n := es.LiveProcs(); n != 0 {
		t.Errorf("%d procs live after the stepped run", n)
	}
}

// TestCloseFinishesSteppedProcs cuts a stepped run with loopers waiting
// between Runs, holding no coroutine, and loopers blocked inside their
// opaque body on a borrowed one: Close finishes the first kind in place and
// unwinds the second, leaving no proc live.
func TestCloseFinishesSteppedProcs(t *testing.T) {
	for _, cut := range []Time{9.5, 13, 17.25, 21} {
		e, ls, _ := loopRun(true, cut)
		var waiting, inRun []*looper
		for _, l := range ls {
			switch {
			case l.proc.dead:
			case l.proc.w == nil:
				waiting = append(waiting, l)
			default:
				inRun = append(inRun, l)
			}
		}
		e.Close()
		if n := e.LiveProcs(); n != 0 {
			t.Fatalf("cut at %v: %d procs live after Close", cut, n)
		}
		for _, l := range inRun {
			if !l.unwound {
				t.Errorf("cut at %v: a looper blocked in its Run was not unwound", cut)
			}
		}
		for _, l := range waiting {
			if l.unwound {
				t.Errorf("cut at %v: a looper between Runs ran its body", cut)
			}
		}
		if cut == 13 && (len(waiting) == 0 || len(inRun) == 0) {
			t.Fatalf("cut at %v: %d loopers between Runs and %d in one; the check needs both", cut, len(waiting), len(inRun))
		}
	}
}

// blocker is a proc whose Resume blocks, which it may not do.
type blocker struct{ proc Proc }

func (b *blocker) String() string      { return "blocker" }
func (b *blocker) Run(*Proc)           {}
func (b *blocker) Resume(p *Proc) bool { p.Sleep(1); return false }

// TestSteppedResumeMayNotBlock: a proc that blocks in its Resume, on the
// event loop, panics with its name.
func TestSteppedResumeMayNotBlock(t *testing.T) {
	e := New()
	defer func() {
		r, _ := recover().(string)
		if !strings.Contains(r, `proc "blocker" blocked on the event loop`) {
			t.Errorf("panic %q, want the proc named", r)
		}
	}()
	b := new(blocker)
	e.Start(&b.proc, b)
	e.Run()
}

// dropper is a proc whose Resume arms nothing while its Run is blocked,
// which it may not do: the Run could never resume.
type dropper struct{ proc Proc }

func (d *dropper) String() string      { return "dropper" }
func (d *dropper) Run(p *Proc)         { p.Sleep(1) }
func (d *dropper) Resume(p *Proc) bool { return p.Now() == 0 }

// TestSteppedResumeMustArmWhileRunBlocked: a Resume that returns false
// with nothing armed while its proc's Run is blocked panics with the
// proc's name.
func TestSteppedResumeMustArmWhileRunBlocked(t *testing.T) {
	e := New()
	defer func() {
		r, _ := recover().(string)
		if !strings.Contains(r, `proc "dropper" armed no wake-up while its Run is blocked`) {
			t.Errorf("panic %q, want the proc named", r)
		}
	}()
	d := new(dropper)
	e.Start(&d.proc, d)
	e.Run()
}
