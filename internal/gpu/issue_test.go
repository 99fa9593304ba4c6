package gpu

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// issueEngine returns the issue engine of a one-SMM device with the given
// issue width: the fair share NewDevice builds, capped at one
// warp-instruction per cycle per warp.
func issueEngine(eng *sim.Engine, width float64) *sim.Share {
	cfg := TitanX()
	cfg.NumSMMs = 1
	cfg.IssueWidth = width
	return NewDevice(eng, cfg).SMMs[0].issue
}

// runPS runs n concurrent acquirers of `work` each on an SMM issue engine of
// the given width and returns each one's completion time.
func runPS(width float64, works []float64) []sim.Time {
	eng := sim.New()
	r := issueEngine(eng, width)
	done := make([]sim.Time, len(works))
	for i, w := range works {
		i, w := i, w
		eng.Spawn("acq", func(p *sim.Proc) {
			r.Acquire(p, w)
			done[i] = eng.Now()
		})
	}
	eng.Run()
	return done
}

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (±%v)", msg, got, want, tol)
	}
}

func TestPSSingleRequestFullRate(t *testing.T) {
	done := runPS(4, []float64{100})
	// A lone warp issues at rate 1, never faster.
	approx(t, done[0], 100, 1e-6, "single request")
}

func TestPSUpToWidthNoSlowdown(t *testing.T) {
	done := runPS(4, []float64{100, 100, 100, 100})
	for i, d := range done {
		approx(t, d, 100, 1e-6, "request under width")
		_ = i
	}
}

func TestPSOversubscribedSharesEqually(t *testing.T) {
	// 8 equal requests on width 4: each progresses at rate 0.5.
	done := runPS(4, []float64{100, 100, 100, 100, 100, 100, 100, 100})
	for _, d := range done {
		approx(t, d, 200, 1e-6, "oversubscribed request")
	}
}

func TestPSShortRequestFreesBandwidth(t *testing.T) {
	// Two requests, width 1: rate 0.5 each. The short one (10) finishes at
	// t=20; the long one then runs at rate 1: 100-10=90 remaining, done 110.
	done := runPS(1, []float64{10, 100})
	approx(t, done[0], 20, 1e-6, "short request")
	approx(t, done[1], 110, 1e-6, "long request")
}

func TestPSLateArrival(t *testing.T) {
	eng := sim.New()
	r := issueEngine(eng, 1)
	var t1, t2 sim.Time
	eng.Spawn("a", func(p *sim.Proc) {
		r.Acquire(p, 100)
		t1 = eng.Now()
	})
	eng.Spawn("b", func(p *sim.Proc) {
		p.Sleep(50)
		r.Acquire(p, 100)
		t2 = eng.Now()
	})
	eng.Run()
	// a runs alone 0-50 (50 done), then shares: both at rate 0.5.
	// a needs 50 more => done at 150. b then runs alone: 50 done at t=150,
	// 50 remaining at rate 1 => done at 200.
	approx(t, t1, 150, 1e-6, "first request")
	approx(t, t2, 200, 1e-6, "second request")
}

func TestPSZeroWorkImmediate(t *testing.T) {
	eng := sim.New()
	r := issueEngine(eng, 4)
	ran := false
	eng.Spawn("z", func(p *sim.Proc) {
		r.Acquire(p, 0)
		ran = true
		if eng.Now() != 0 {
			t.Errorf("zero work advanced time to %v", eng.Now())
		}
	})
	eng.Run()
	if !ran {
		t.Fatal("proc never ran")
	}
}

func TestPSBusyIntegral(t *testing.T) {
	eng := sim.New()
	r := issueEngine(eng, 4)
	eng.Spawn("a", func(p *sim.Proc) { r.Acquire(p, 100) })
	eng.Run()
	// One warp for 100 cycles: busy integral 100 (1 slot), util = 100/(4*100).
	approx(t, r.Integrals(), 100, 1e-6, "busy integral")
}

func TestPSManyStaggered(t *testing.T) {
	// Throughput conservation: total work delivered equals sum of works, and
	// last completion >= total/width.
	works := make([]float64, 40)
	var total float64
	for i := range works {
		works[i] = float64(10 + i*3)
		total += works[i]
	}
	done := runPS(4, works)
	var last sim.Time
	for _, d := range done {
		if d > last {
			last = d
		}
	}
	if last < total/4-1e-6 {
		t.Fatalf("finished faster than capacity allows: last=%v, lower bound=%v", last, total/4)
	}
	// The tail (fewer than `width` requests left, each capped at rate 1)
	// keeps the resource from being perfectly work-conserving, but the
	// overshoot is bounded by the longest request.
	longest := works[len(works)-1]
	if last > total/4+longest {
		t.Fatalf("tail overshoot too large: last=%v, bound=%v", last, total/4+longest)
	}
}
