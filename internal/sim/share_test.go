package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// flow is one Acquire of `work` units issued at time `at`.
type flow struct{ at, work float64 }

// runShare runs the flows on one Share and returns each one's completion
// time.
func runShare(capacity, perFlow float64, flows []flow) []Time {
	e := New()
	s := NewShare(e, capacity, perFlow)
	done := make([]Time, len(flows))
	for i, f := range flows {
		e.Spawn("acq", func(p *Proc) {
			p.Sleep(f.at)
			s.Acquire(p, f.work)
			done[i] = e.Now()
		})
	}
	e.Run()
	return done
}

func TestShareCompletionTimes(t *testing.T) {
	inf := math.Inf(1)
	eight := make([]flow, 8)
	for i := range eight {
		eight[i] = flow{0, 100}
	}
	cases := []struct {
		name              string
		capacity, perFlow float64
		flows             []flow
		want              []Time
	}{
		// Capped at one unit per cycle per flow (an SMM's issue slots; the
		// TestPS* tests in internal/gpu drive that engine through more
		// shapes).
		{"capped/lone flow at the cap", 4, 1, []flow{{0, 100}}, []Time{100}},
		{"capped/up to capacity no slowdown", 4, 1, eight[:4], []Time{100, 100, 100, 100}},
		{"capped/oversubscribed shares equally", 4, 1, eight,
			[]Time{200, 200, 200, 200, 200, 200, 200, 200}},

		// No per-flow cap (device memory, a PCIe direction).
		{"uncapped/lone flow takes capacity", 10, inf, []flow{{0, 1000}}, []Time{100}},
		{"uncapped/n flows split evenly", 10, inf,
			[]flow{{0, 1000}, {0, 1000}, {0, 1000}, {0, 1000}}, []Time{400, 400, 400, 400}},
		{"uncapped/short flow frees capacity", 10, inf, []flow{{0, 100}, {0, 1000}}, []Time{20, 110}},
		// Alone 0-50 at 10 (500 done), then 5 each: the first ends at 150,
		// the second has 500 left at 10, done at 200.
		{"uncapped/late arrival", 10, inf, []flow{{0, 1000}, {50, 1000}}, []Time{150, 200}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := runShare(c.capacity, c.perFlow, c.flows)
			for i := range got {
				if math.Abs(got[i]-c.want[i]) > 1e-6 {
					t.Fatalf("flow %d done at %v, want %v (all: %v)", i, got[i], c.want[i], got)
				}
			}
		})
	}
}

func TestShareZeroWorkImmediate(t *testing.T) {
	e := New()
	s := NewShare(e, 4, 1)
	ran := false
	e.Spawn("z", func(p *Proc) {
		s.Acquire(p, 0)
		s.Acquire(p, -3)
		ran = true
		if e.Now() != 0 {
			t.Errorf("zero work advanced time to %v", e.Now())
		}
	})
	e.Run()
	if !ran {
		t.Fatal("proc never ran")
	}
}

func TestShareIntegrals(t *testing.T) {
	cases := []struct {
		name              string
		capacity, perFlow float64
		works             []float64
		mid, end          float64 // busy integral at t=50 and at the end
	}{
		// One capped flow uses one of four units: 50 at t=50, 100 at 100.
		{"capped", 4, 1, []float64{100}, 50, 100},
		// Two uncapped flows keep all 10 units busy until t=200.
		{"uncapped", 10, math.Inf(1), []float64{1000, 1000}, 500, 2000},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := New()
			s := NewShare(e, c.capacity, c.perFlow)
			for _, w := range c.works {
				e.Spawn("acq", func(p *Proc) { s.Acquire(p, w) })
			}
			var mid float64
			e.Schedule(50, func() { mid = s.Integrals() })
			e.Run()
			if mid != c.mid {
				t.Errorf("busy integral at t=50 = %v, want %v", mid, c.mid)
			}
			if got := s.Integrals(); got != c.end {
				t.Errorf("busy integral at end = %v, want %v", got, c.end)
			}
			// An idle stretch accrues nothing.
			e.Schedule(1000, func() {})
			e.Run()
			if got := s.Integrals(); got != c.end {
				t.Errorf("busy integral after idle = %v, want %v", got, c.end)
			}
		})
	}
}

// BenchmarkShareAcquire measures steady-state Acquire: 8 procs on one engine
// loop on a capacity-4 share capped at 1 per flow (an SMM issue engine),
// with staggered work so completions keep re-keying the timer. Acquire
// must not allocate once the request slice has grown.
func BenchmarkShareAcquire(b *testing.B) {
	const procs = 8
	e := New()
	s := NewShare(e, 4, 1)
	for j := 0; j < procs; j++ {
		n := b.N / procs
		if j < b.N%procs {
			n++
		}
		work := float64(1 + j)
		e.Spawn("acq", func(p *Proc) {
			for i := 0; i < n; i++ {
				s.Acquire(p, work)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// scanShare is Share as it was before it tracked its earliest finisher:
// rearm scans every request for the least remaining work. It is the
// reference TestShareMatchesScanningRearm holds Share to, bit for bit.
type scanShare struct {
	eng               *Engine
	capacity, perFlow float64
	reqs              []shareReq
	last, busy        float64
	timer             *Timer
}

func newScanShare(e *Engine, capacity, perFlow float64) *scanShare {
	s := &scanShare{eng: e, capacity: capacity, perFlow: perFlow, last: e.now}
	s.timer = NewTimer(e, s.onTimer)
	return s
}

func (s *scanShare) rate(n int) float64 { return math.Min(s.perFlow, s.capacity/float64(n)) }

func (s *scanShare) used(n int) float64 { return math.Min(float64(n)*s.perFlow, s.capacity) }

func (s *scanShare) settle() {
	now := s.eng.now
	if n := len(s.reqs); n > 0 {
		if dt := now - s.last; dt > 0 {
			rt := s.rate(n)
			for i := range s.reqs {
				s.reqs[i].remaining -= dt * rt
			}
			s.busy += dt * s.used(n)
		}
	}
	s.last = now
}

func (s *scanShare) rearm() {
	if len(s.reqs) == 0 {
		return
	}
	minRem := math.Inf(1)
	for i := range s.reqs {
		if s.reqs[i].remaining < minRem {
			minRem = s.reqs[i].remaining
		}
	}
	if minRem < 0 {
		minRem = 0
	}
	s.timer.ResetForward(minRem / s.rate(len(s.reqs)))
}

func (s *scanShare) onTimer() {
	s.settle()
	kept := s.reqs[:0]
	for i := range s.reqs {
		if s.reqs[i].remaining <= shareEps {
			s.reqs[i].proc.Wakeup()
		} else {
			kept = append(kept, s.reqs[i])
		}
	}
	s.reqs = kept
	s.rearm()
}

func (s *scanShare) Acquire(p *Proc, work float64) {
	if work <= 0 {
		return
	}
	s.settle()
	s.reqs = append(s.reqs, shareReq{remaining: work, proc: p})
	s.rearm()
	block(p)
}

func (s *scanShare) Integrals() float64 {
	busy := s.busy
	if n := len(s.reqs); n > 0 {
		if dt := s.eng.now - s.last; dt > 0 {
			busy += dt * s.used(n)
		}
	}
	return busy
}

// TestShareMatchesScanningRearm runs seeded random workloads through Share
// and through scanShare: staggered and simultaneous arrivals, requests with
// equal remaining work, residues below shareEps and zero work, on capped
// and uncapped shares. Every completion instant and every sampled busy
// integral must match bit for bit.
func TestShareMatchesScanningRearm(t *testing.T) {
	type share interface {
		Acquire(p *Proc, work float64)
		Integrals() float64
	}
	works := []float64{1, 1, 2, 0.5, 3e-7, 1 + 3e-7, 7, 1e-7, 2.0000001, 0, 1.0 / 3, 64}
	gaps := []Time{0, 0, 0.25, 0.5, 1, 3, 1.0 / 3, 1e-7}
	shapes := []struct{ capacity, perFlow float64 }{{4, 1}, {10, math.Inf(1)}, {3, 1}, {2.5, 1}, {300, math.Inf(1)}}
	run := func(seed int64, mk func(*Engine, float64, float64) share) (done, busy []float64) {
		rng := rand.New(rand.NewSource(seed))
		shape := shapes[rng.Intn(len(shapes))]
		e := New()
		defer e.Close()
		s := mk(e, shape.capacity, shape.perFlow)
		for i := 0; i < 12; i++ {
			plan := make([][2]float64, 20)
			for j := range plan {
				plan[j] = [2]float64{gaps[rng.Intn(len(gaps))], works[rng.Intn(len(works))]}
			}
			e.Spawn("acq", func(p *Proc) {
				for _, step := range plan {
					p.Sleep(step[0])
					s.Acquire(p, step[1])
					done = append(done, p.Now())
				}
			})
		}
		for k := 1; k <= 40; k++ {
			e.Schedule(Time(k)*1.7, func() { busy = append(busy, s.Integrals()) })
		}
		e.Run()
		return done, append(busy, s.Integrals())
	}
	for seed := int64(1); seed <= 40; seed++ {
		got, gotBusy := run(seed, func(e *Engine, c, f float64) share { return NewShare(e, c, f) })
		want, wantBusy := run(seed, func(e *Engine, c, f float64) share { return newScanShare(e, c, f) })
		if !slices.EqualFunc(got, want, sameBits) {
			t.Fatalf("seed %d: completion instants differ from the scanning rearm:\n got %v\nwant %v", seed, got, want)
		}
		if !slices.EqualFunc(gotBusy, wantBusy, sameBits) {
			t.Fatalf("seed %d: busy integrals differ from the scanning rearm:\n got %v\nwant %v", seed, gotBusy, wantBusy)
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestNaNWorkPanicsAtCall: a request of NaN work panics at the Share call
// that makes it, before it takes any of the rate from the requests in
// service: p's 100 units on a rate-1 share still finish at t=100.
func TestNaNWorkPanicsAtCall(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  func(s *Share, q *Proc)
	}{
		{"Acquire", func(s *Share, q *Proc) { s.Acquire(q, math.NaN()) }},
		{"AcquireThen", func(s *Share, q *Proc) { s.AcquireThen(q, math.NaN()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			defer e.Close()
			s := NewShare(e, 1, 1)
			var done Time
			var got any
			e.Spawn("p", func(p *Proc) {
				s.Acquire(p, 100)
				done = p.Now()
			})
			e.Spawn("q", func(q *Proc) {
				defer func() { got = recover() }()
				tc.req(s, q)
			})
			e.Run()
			if msg, _ := got.(string); msg != `sim: proc "q" requested NaN work` {
				t.Fatalf("panic %v, want one naming q's NaN work", got)
			}
			if done != 100 {
				t.Fatalf("p finished at %v, want 100", done)
			}
		})
	}
}
