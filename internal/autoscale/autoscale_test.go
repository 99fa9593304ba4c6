package autoscale

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// stubNode is a ledger-only cluster.Node for lifecycle tests: Submit routes,
// the test completes or drops tasks by mutating the view directly.
type stubNode struct {
	name   string
	view   cluster.NodeView
	closed bool
}

func (s *stubNode) Name() string              { return s.name }
func (s *stubNode) View() cluster.NodeView    { return s.view }
func (s *stubNode) Submit(_ *sim.Proc, _ int) { s.view.Routed++ }
func (s *stubNode) Close()                    { s.closed = true }

// stubFleet builds a fleet over stub nodes and returns both, with a small
// deterministic lifecycle configuration unless overridden.
func stubFleet(t *testing.T, eng *sim.Engine, cfg Config) (*Fleet, *[]*stubNode) {
	t.Helper()
	nodes := &[]*stubNode{}
	f, err := NewFleet(eng, cfg, func(id int) cluster.Node {
		s := &stubNode{name: "stub"}
		*nodes = append(*nodes, s)
		return s
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	return f, nodes
}

// TestPredictiveEWMAMonotoneConvergence is the estimator property from the
// issue: under a constant observed rate the EWMA approaches it monotonically
// from either side and never overshoots, so provisioning lead time comes
// from Headroom, not estimator ringing.
func TestPredictiveEWMAMonotoneConvergence(t *testing.T) {
	const target = 96e3
	for _, start := range []float64{0, 12e3, 200e3} {
		p := NewPredictive(0.25, 64e3, 1.0)
		p.Target(Signals{ArrivalRate: start, Provisioned: 1})
		prevGap := math.Abs(target - p.est)
		lo, hi := math.Min(start, target), math.Max(start, target)
		for i := 0; i < 64; i++ {
			p.Target(Signals{ArrivalRate: target, Provisioned: 1})
			est := p.est
			if est < lo-1e-9 || est > hi+1e-9 {
				t.Fatalf("start %v step %d: estimate %v left [%v, %v]", start, i, est, lo, hi)
			}
			gap := math.Abs(target - est)
			if gap > prevGap+1e-9 {
				t.Fatalf("start %v step %d: gap grew %v -> %v", start, i, prevGap, gap)
			}
			if prevGap > 0 && gap >= prevGap && math.Abs(start-target) > 0 {
				t.Fatalf("start %v step %d: gap stalled at %v", start, i, gap)
			}
			prevGap = gap
		}
		if prevGap > 1e-3*target {
			t.Fatalf("start %v: estimate %v never converged to %v", start, p.est, target)
		}
	}
}

// TestPredictiveSeedsWithFirstObservation pins the cold-start rule: the
// first tick's rate is adopted wholesale, not blended with a zero prior.
func TestPredictiveSeedsWithFirstObservation(t *testing.T) {
	p := NewPredictive(0.1, 64e3, 1.0)
	p.Target(Signals{ArrivalRate: 48e3, Provisioned: 1})
	if p.est != 48e3 {
		t.Fatalf("estimate after first observation = %v, want 48000", p.est)
	}
}

// TestReactiveHysteresisBandHoldsSteady is the no-flap property: every
// backlog strictly inside the (Low, High) per-node watermark band leaves the
// target at the current size, for any fleet size.
func TestReactiveHysteresisBandHoldsSteady(t *testing.T) {
	r := Reactive{High: 16, Low: 2, Step: 2}
	for prov := 1; prov <= 32; prov++ {
		for perNode := r.Low + 1; perNode < r.High; perNode++ {
			s := Signals{Provisioned: prov, Backlog: perNode * prov}
			if got := r.Target(s); got != prov {
				t.Fatalf("prov %d backlog/node %d: target %d, want hold at %d", prov, perNode, got, prov)
			}
		}
		if got := r.Target(Signals{Provisioned: prov, Backlog: r.High * prov}); got != prov+2 {
			t.Fatalf("prov %d at high watermark: target %d, want %d", prov, got, prov+2)
		}
		if got := r.Target(Signals{Provisioned: prov, Backlog: r.Low * prov}); got != prov-1 {
			t.Fatalf("prov %d at low watermark: target %d, want %d", prov, got, prov-1)
		}
	}
}

// TestReactiveSLOGuardsScaleIn: a healthy-looking backlog must not shrink
// the fleet while the rolling p99 is above the SLO.
func TestReactiveSLOGuardsScaleIn(t *testing.T) {
	r := Reactive{High: 16, Low: 2, SLO: 1000e3, Step: 1}
	s := Signals{Provisioned: 4, Backlog: 0, P99: 2000e3}
	if got := r.Target(s); got != 4 {
		t.Fatalf("target %d under burning p99, want hold at 4", got)
	}
	s.P99 = 500e3
	if got := r.Target(s); got != 3 {
		t.Fatalf("target %d with healthy p99, want scale-in to 3", got)
	}
}

// wildPolicy replays a fixed target sequence, including out-of-bounds
// values, to prove the fleet clamps whatever a policy asks for.
type wildPolicy struct {
	seq []int
	i   int
}

func (w *wildPolicy) Target(Signals) int {
	v := w.seq[w.i%len(w.seq)]
	w.i++
	return v
}

// TestFleetBoundsNeverViolated is the bounds property: no matter what the
// policy demands (including negative and huge targets) the provisioned count
// stays inside [Min, Max] at every tick.
func TestFleetBoundsNeverViolated(t *testing.T) {
	eng := sim.New()
	cfg := Config{Min: 2, Max: 5, Interval: 100, Warmup: 150, Cooldown: 1,
		Policy: func() Policy { return &wildPolicy{seq: []int{100, -3, 4, 0, 7, 3, 1000, 2}} }}
	f, _ := stubFleet(t, eng, cfg)
	eng.Spawn("ctl", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			p.Sleep(cfg.Interval)
			f.Step(p.Now())
			prov, active := 0, 0
			for _, m := range f.nodes {
				switch m.span.State {
				case Warming:
					prov++
				case Active:
					prov++
					active++
				}
			}
			if prov < cfg.Min || prov > cfg.Max {
				t.Errorf("tick %d: provisioned %d outside [%d, %d]", i, prov, cfg.Min, cfg.Max)
			}
			if active > prov {
				t.Errorf("tick %d: active %d exceeds provisioned %d", i, active, prov)
			}
		}
		f.CloseAll()
	})
	end := eng.Run()
	f.Finish(end)
	if o := f.Outcome(); o.Peak > cfg.Max {
		t.Errorf("outcome peak %d exceeds max %d", o.Peak, cfg.Max)
	}
}

// TestFleetNoFlapInsideBand drives a reactive fleet with a backlog pinned
// inside the hysteresis band and demands zero scale events end to end.
func TestFleetNoFlapInsideBand(t *testing.T) {
	eng := sim.New()
	cfg := Config{Min: 2, Max: 8, Interval: 100, Cooldown: 1,
		Policy: func() Policy { return Reactive{High: 16, Low: 2, Step: 1} }}
	f, nodes := stubFleet(t, eng, cfg)
	eng.Spawn("ctl", func(p *sim.Proc) {
		// Per-node backlog 8: inside (2, 16) on both nodes, forever.
		for _, s := range *nodes {
			s.view.Routed = 8
		}
		for i := 0; i < 64; i++ {
			p.Sleep(cfg.Interval)
			f.Step(p.Now())
		}
		f.CloseAll()
	})
	f.Finish(eng.Run())
	o := f.Outcome()
	if o.ScaleOuts != 0 || o.ScaleIns != 0 {
		t.Fatalf("fleet flapped inside the hysteresis band: %d scale-outs, %d scale-ins", o.ScaleOuts, o.ScaleIns)
	}
	if len(o.Nodes) != cfg.Min {
		t.Fatalf("%d nodes ever provisioned, want the initial %d", len(o.Nodes), cfg.Min)
	}
}

// TestFleetWarmupGatesDispatch: a scale-out node must be invisible to
// Snapshot until its warm-up elapses, and its span records the delay.
func TestFleetWarmupGatesDispatch(t *testing.T) {
	eng := sim.New()
	const warm = 350
	cfg := Config{Min: 1, Max: 2, Interval: 100, Warmup: warm, Cooldown: 1,
		Policy: func() Policy { return Reactive{High: 4, Low: 0, Step: 1} }}
	f, nodes := stubFleet(t, eng, cfg)
	eng.Spawn("ctl", func(p *sim.Proc) {
		(*nodes)[0].view.Routed = 64 // per-node backlog way past High
		var scaledAt sim.Time
		for i := 0; i < 12; i++ {
			p.Sleep(cfg.Interval)
			f.Step(p.Now())
			if ns, _ := f.Snapshot(); len(ns) == 2 {
				if p.Now()-scaledAt < warm {
					t.Errorf("node dispatchable %v cycles after provisioning, warm-up is %v", p.Now()-scaledAt, sim.Time(warm))
				}
				break
			}
			if scaledAt == 0 && len(f.nodes) == 2 {
				scaledAt = p.Now()
			}
		}
		f.CloseAll()
	})
	f.Finish(eng.Run())
	o := f.Outcome()
	if len(o.Nodes) != 2 || o.ScaleOuts != 1 {
		t.Fatalf("expected exactly one scale-out: %+v", o)
	}
	sp := o.Nodes[1]
	if sp.ActiveAt-sp.ProvisionedAt != warm {
		t.Errorf("span charges %v warm-up, want %v", sp.ActiveAt-sp.ProvisionedAt, sim.Time(warm))
	}
}

// TestFleetDrainRetiresOnlyWhenEmpty: a draining node with in-flight work
// survives (and keeps costing node-seconds) until its ledger balances.
func TestFleetDrainRetiresOnlyWhenEmpty(t *testing.T) {
	eng := sim.New()
	cfg := Config{Min: 1, Max: 2, Interval: 100, Cooldown: 1,
		Policy: func() Policy { return Reactive{High: 4, Low: 2, Step: 1} }}
	f, nodes := stubFleet(t, eng, cfg)
	eng.Spawn("ctl", func(p *sim.Proc) {
		(*nodes)[0].view.Routed = 64
		p.Sleep(cfg.Interval)
		f.Step(p.Now()) // scale out (no warm-up: node 1 active immediately)
		(*nodes)[0].view.Done = 64
		(*nodes)[1].view.Routed = 3 // in-flight work on the scale-in victim
		p.Sleep(cfg.Interval)
		f.Step(p.Now()) // scale in: node 1 drains
		if !(*nodes)[1].closed {
			t.Error("drained node was not closed")
		}
		if st := f.nodes[1].span.State; st != Draining {
			t.Errorf("victim state %v, want draining", st)
		}
		p.Sleep(cfg.Interval)
		f.Step(p.Now())
		if st := f.nodes[1].span.State; st != Draining {
			t.Errorf("victim retired with outstanding work (state %v)", st)
		}
		(*nodes)[1].view.Done = 3 // in-flight work finishes
		p.Sleep(cfg.Interval)
		f.Step(p.Now())
		if st := f.nodes[1].span.State; st != Retired {
			t.Errorf("victim state %v after drain completed, want retired", st)
		}
		f.CloseAll()
	})
	f.Finish(eng.Run())
	o := f.Outcome()
	if o.ScaleOuts != 1 || o.ScaleIns != 1 {
		t.Fatalf("%d scale-outs, %d scale-ins, want 1 each", o.ScaleOuts, o.ScaleIns)
	}
	sp := o.Nodes[1]
	if sp.RetiredAt <= sp.ClosedAt {
		t.Errorf("drain span empty: closed %v retired %v", sp.ClosedAt, sp.RetiredAt)
	}
}

// TestOutcomeCostLedger checks the node-seconds arithmetic on a hand-built
// outcome: 2 nodes x 1e9 cycles = 2 node-seconds.
func TestOutcomeCostLedger(t *testing.T) {
	o := Outcome{NodeCycles: 2e9}
	if got := o.NodeSeconds(); got != 2 {
		t.Errorf("NodeSeconds = %v, want 2", got)
	}
}

// TestConfigValidate enumerates the rejection paths.
func TestConfigValidate(t *testing.T) {
	pol := func() Policy { return Reactive{High: 4, Low: 1} }
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"min zero", Config{Min: 0, Max: 4, Policy: pol}, "not positive"},
		{"max below min", Config{Min: 4, Max: 2, Policy: pol}, "below min"},
		{"elastic without policy", Config{Min: 1, Max: 4}, "need a scaling policy"},
		{"negative warmup", Config{Min: 1, Max: 4, Policy: pol, Warmup: -1}, "warmup"},
		{"nan interval", Config{Min: 1, Max: 4, Policy: pol, Interval: math.NaN()}, "interval"},
		{"negative window", Config{Min: 1, Max: 4, Policy: pol, Window: -1}, "window"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	ok := Config{Min: 2, Max: 2}
	if err := ok.Validate(); err != nil {
		t.Errorf("fixed fleet without policy rejected: %v", err)
	}
	if ok.Enabled() {
		t.Error("min == max reported as elastic")
	}
	if !(&Config{Min: 1, Max: 2, Policy: pol}).Enabled() {
		t.Error("max > min reported as fixed")
	}
}

// TestNewPolicyFactory covers the registry: every listed name constructs,
// fresh state per call, unknown names fail with the valid list.
func TestNewPolicyFactory(t *testing.T) {
	for _, name := range PolicyNames() {
		mk, err := NewPolicy(name, DefaultTuning())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p1, p2 := mk(), mk()
		if _, reactive := p1.(Reactive); reactive != (name == "reactive") {
			t.Errorf("policy %q built a %T", name, p1)
		}
		if name == "predictive" && p1 == p2 {
			// Stateful policies must not share their estimator across runs.
			t.Errorf("%s: factory returned shared state", name)
		}
	}
	if _, err := NewPolicy("nope", DefaultTuning()); err == nil || !strings.Contains(err.Error(), "reactive") {
		t.Errorf("unknown policy error %v should list valid names", err)
	}
}

// TestTuningAggressive pins the aggressiveness transform the experiment
// sweeps: tighter watermarks, bigger steps, lighter smoothing, more
// headroom — and alpha capped at 1.
func TestTuningAggressive(t *testing.T) {
	a := DefaultTuning().Aggressive()
	d := DefaultTuning()
	if a.High >= d.High || a.Step <= d.Step || a.Alpha <= d.Alpha || a.Headroom <= d.Headroom {
		t.Errorf("aggressive not strictly twitchier: %+v vs %+v", a, d)
	}
	if x := (Tuning{Alpha: 0.8}).Aggressive(); x.Alpha != 1 {
		t.Errorf("alpha not capped at 1: %v", x.Alpha)
	}
}

// FuzzTuning: Validate never panics; NewPolicy fails exactly when Validate
// does; and a tuning that passes gives a predictive policy whose target, for
// finite signals, is at least 1 and provisions for the observed rate (or
// saturates at maxTarget) instead of wrapping a +Inf node count to 1. The
// seeds include the rates 0, -1 and NaN: unvalidated, each turns a 1e6
// tasks/s signal into a one-node target.
func FuzzTuning(f *testing.F) {
	d := DefaultTuning()
	f.Add(d.High, d.Low, d.Step, float64(d.SLO), d.Alpha, d.PerNodeRate, d.Headroom, 1e6, 2e6, 4)
	for _, rate := range []float64{0, -1, math.NaN()} {
		f.Add(d.High, d.Low, d.Step, float64(d.SLO), d.Alpha, rate, d.Headroom, 1e6, 2e6, 4)
	}
	f.Add(1, 8, -1, -5.0, 0.0, 64e3, 0.5, 1e6, 0.0, 1)
	f.Add(16, 2, 1, 0.0, 1.0, 1e-300, 1e300, 1e300, 1e6, 2)
	f.Fuzz(func(t *testing.T, high, low, step int, slo, alpha, perNode, headroom, rate1, rate2 float64, prov int) {
		tu := Tuning{High: high, Low: low, SLO: sim.Time(slo), Step: step, Alpha: alpha, PerNodeRate: perNode, Headroom: headroom}
		verr := tu.Validate()
		for _, name := range PolicyNames() {
			if _, err := NewPolicy(name, tu); (err == nil) != (verr == nil) {
				t.Fatalf("NewPolicy(%q) = %v, Validate = %v", name, err, verr)
			}
		}
		if verr != nil {
			return
		}
		for _, r := range []float64{rate1, rate2} {
			if math.IsNaN(r) || math.IsInf(r, 0) {
				return
			}
		}
		mk, _ := NewPolicy("predictive", tu)
		p := mk()
		first := p.Target(Signals{Provisioned: prov, ArrivalRate: rate1})
		if first < 1 {
			t.Fatalf("%+v: target %d at %v tasks/s, want >= 1", tu, first, rate1)
		}
		if rate1 > 0 && first != maxTarget && !(float64(first)*perNode >= rate1*(1-1e-9)) {
			t.Fatalf("%+v: %d nodes at %v tasks/s each cannot carry %v tasks/s", tu, first, perNode, rate1)
		}
		if got := p.Target(Signals{Provisioned: prov, ArrivalRate: rate2}); got < 1 {
			t.Fatalf("%+v: second target %d, want >= 1", tu, got)
		}
	})
}
