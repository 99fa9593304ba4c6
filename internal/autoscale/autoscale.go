// Package autoscale is the fleet-elasticity layer over internal/cluster: a
// policy-driven controller that grows and shrinks the node set a dispatcher
// routes over, entirely in virtual time on the shared simulation engine.
//
// The lifecycle model is the production one. A scale-out decision provisions
// a node that first pays a warm-up cost (GPU init plus first-batch latency,
// charged in sim time) before it accepts dispatch; a scale-in decision drains
// a node — it stops receiving, finishes its in-flight work, then retires.
// Every node ever provisioned keeps its conservation ledger, so the fleet
// invariant routed = done + dropped holds across node add and remove, and
// node-seconds accrue from provision to retirement — warm-up and drain are
// paid for, which is exactly what the cost-vs-SLO report prices.
//
// Determinism rules: the controller observes only node ledgers and the
// rolling completion window, both mutated under the engine baton; there is
// no wall clock, no map iteration and no unseeded randomness anywhere, so an
// elastic fleet run is as bit-reproducible as a fixed one.
package autoscale

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/sim"
)

// Default lifecycle parameters. Warm-up models GPU init plus the first
// batch's latency on a freshly provisioned device; the control interval and
// cooldown quantize how fast the fleet may react.
const (
	DefaultInterval = sim.Time(250e3)  // 250us control-loop period
	DefaultWarmup   = sim.Time(1e6)    // 1ms provision-to-dispatchable cost
	DefaultCooldown = sim.Time(1000e3) // 1ms between scale events
	DefaultWindow   = 128              // completions in the rolling p99 window
)

// Config parameterizes one elastic fleet. The zero value is not runnable;
// fill in at least the bounds and a policy factory, or keep Min == Max for a
// fixed fleet (Enabled returns false and runners use a cluster.StaticFleet
// of Min nodes, bit-identical to a fixed-size run).
type Config struct {
	Min, Max int // fleet bounds; active+warming never leaves [Min, Max]

	// Policy builds one fresh scaling policy per run (policies are
	// stateful — Predictive carries its EWMA). Required when Max > Min.
	Policy func() Policy

	// Interval is the control-loop period in cycles; 0 means
	// DefaultInterval. Signals, warm-up completion and drain retirement are
	// all observed at this granularity.
	Interval sim.Time

	// Warmup is the provision-to-dispatchable cost in cycles (GPU init +
	// first-batch latency); 0 makes a scale-out node dispatchable at once,
	// and Validate rejects a negative value. The initial Min nodes are
	// pre-provisioned before traffic and pay no warm-up.
	Warmup sim.Time

	// Cooldown is the minimum spacing between scale events in cycles; 0
	// means DefaultCooldown. It is the fleet-level hysteresis that keeps a
	// policy oscillating around a threshold from flapping nodes.
	Cooldown sim.Time
}

// Enabled reports whether the config asks for actual elasticity: a nil
// config or one with Max == Min is a fixed fleet.
func (c *Config) Enabled() bool { return c != nil && c.Max > c.Min }

// Validate reports a descriptive error for bounds or lifecycle parameters
// that cannot run: Min < 1, Max < Min, a missing policy on an elastic
// config, non-finite/negative times, or a non-zero interval under one
// cycle, the sim clock's resolution (its control loop would tick without
// end).
func (c Config) Validate() error {
	if c.Min < 1 {
		return fmt.Errorf("autoscale: min fleet size %d is not positive", c.Min)
	}
	if c.Max < c.Min {
		return fmt.Errorf("autoscale: max fleet size %d below min %d", c.Max, c.Min)
	}
	if c.Max > c.Min && c.Policy == nil {
		return fmt.Errorf("autoscale: elastic bounds %d..%d need a scaling policy", c.Min, c.Max)
	}
	for _, d := range []struct {
		what string
		v    sim.Time
	}{{"interval", c.Interval}, {"warmup", c.Warmup}, {"cooldown", c.Cooldown}} {
		if d.v < 0 || math.IsNaN(d.v) || math.IsInf(d.v, 0) {
			return fmt.Errorf("autoscale: %s %v is not a finite non-negative cycle count", d.what, d.v)
		}
	}
	if c.Interval > 0 && c.Interval < 1 {
		return fmt.Errorf("autoscale: interval %v is under the sim clock's resolution of 1 cycle", c.Interval)
	}
	return nil
}

func (c Config) fill() Config {
	if c.Interval == 0 {
		c.Interval = DefaultInterval
	}
	if c.Cooldown == 0 {
		c.Cooldown = DefaultCooldown
	}
	return c
}

// NodeState is one managed node's lifecycle phase.
type NodeState int

const (
	// Warming nodes are provisioned (and paying node-seconds) but not yet
	// dispatchable: the warm-up cost is still being charged.
	Warming NodeState = iota
	// Active nodes accept dispatch.
	Active
	// Draining nodes stopped receiving and are finishing in-flight work.
	Draining
	// Retired nodes have drained completely; their ledgers are frozen.
	Retired
)

// String implements fmt.Stringer.
func (s NodeState) String() string {
	switch s {
	case Warming:
		return "warming"
	case Active:
		return "active"
	case Draining:
		return "draining"
	case Retired:
		return "retired"
	}
	return fmt.Sprintf("NodeState(%d)", int(s))
}

// NodeSpan is one managed node's lifecycle timeline, for reports and trace
// export. Once the run finished (Finish stamps stragglers) every node has
// ProvisionedAt <= ClosedAt <= RetiredAt; ActiveAt sits between Provisioned
// and Closed except for a node whose scale-out was canceled during warm-up —
// it never became dispatchable and its ActiveAt stays 0.
type NodeSpan struct {
	ID            int
	State         NodeState
	ProvisionedAt sim.Time // instant the node began costing node-seconds
	ActiveAt      sim.Time // instant it became dispatchable (warm-up done)
	ClosedAt      sim.Time // instant it stopped receiving (drain start)
	RetiredAt     sim.Time // instant its ledger balanced (drain complete)
}

// managed pairs a backend node with its lifecycle bookkeeping. warmDone is
// the warm-up deadline for a Warming node; the span's ActiveAt is stamped
// only if the node actually reaches Active.
type managed struct {
	n        cluster.Node
	span     NodeSpan
	warmDone sim.Time
}

// Fleet is the elastic node set: it implements cluster.Fleet for the
// dispatcher (Snapshot/CloseAll) and is stepped by a controller process at
// Config.Interval granularity. All methods run under the engine baton.
type Fleet struct {
	eng   *sim.Engine
	cfg   Config
	pol   Policy
	spawn func(id int) cluster.Node

	nodes []*managed

	closed      bool
	haveScaled  bool
	lastScaleAt sim.Time
	lastOffered int
	outs, ins   int
	peak        int

	// rolling completion-latency window behind the p99 signal
	win     [DefaultWindow]sim.Time
	winNext int
	winLen  int
	scratch []sim.Time

	// reused Snapshot buffers (the dispatcher consumes them synchronously)
	snapNodes []cluster.Node
	snapIDs   []int
}

// NewFleet validates cfg and provisions the initial Min nodes, immediately
// active: the starting fleet is pre-provisioned capacity, in place before
// traffic, so it pays no warm-up — which is also what makes a Min == Max
// fleet equivalent to a cluster.StaticFleet. spawn builds one scheme-backed
// node (engine processes and all) per provisioned id; ids are dense and
// monotonic, so "node%02d" track names stay stable across scale events.
func NewFleet(eng *sim.Engine, cfg Config, spawn func(id int) cluster.Node) (*Fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.fill()
	f := &Fleet{
		eng:     eng,
		cfg:     cfg,
		spawn:   spawn,
		peak:    cfg.Min,
		scratch: make([]sim.Time, 0, DefaultWindow),
	}
	if cfg.Policy != nil {
		f.pol = cfg.Policy()
	}
	for i := 0; i < cfg.Min; i++ {
		f.provision(0, Active)
	}
	return f, nil
}

// provision creates one managed node in the given initial state at instant
// now and returns it.
func (f *Fleet) provision(now sim.Time, state NodeState) *managed {
	id := len(f.nodes)
	m := &managed{span: NodeSpan{ID: id, State: state, ProvisionedAt: now}}
	if state == Active {
		m.span.ActiveAt = now
	} else {
		m.warmDone = now + f.cfg.Warmup
	}
	m.n = f.spawn(id)
	f.nodes = append(f.nodes, m)
	return m
}

// Interval returns the filled control-loop period — what the controller
// process sleeps between Step calls.
func (f *Fleet) Interval() sim.Time { return f.cfg.Interval }

// Closed reports whether CloseAll has run (arrivals are over); the
// controller process exits on it.
func (f *Fleet) Closed() bool { return f.closed }

// Snapshot implements cluster.Fleet: the currently dispatchable nodes and
// their stable ids, in id order. The returned slices are reused across
// calls — the dispatcher consumes them before yielding the baton.
func (f *Fleet) Snapshot() ([]cluster.Node, []int) {
	f.snapNodes = f.snapNodes[:0]
	f.snapIDs = f.snapIDs[:0]
	for _, m := range f.nodes {
		if m.span.State == Active {
			f.snapNodes = append(f.snapNodes, m.n)
			f.snapIDs = append(f.snapIDs, m.span.ID)
		}
	}
	return f.snapNodes, f.snapIDs
}

// CloseAll implements cluster.Fleet: arrivals are over, every node not
// already draining or retired drains now. Scale decisions stop; remaining
// retirements are stamped by Finish.
func (f *Fleet) CloseAll() {
	f.closed = true
	now := f.eng.Now()
	for _, m := range f.nodes {
		if m.span.State == Warming || m.span.State == Active {
			m.span.State = Draining
			m.span.ClosedAt = now
			m.n.Close()
		}
	}
}

// NoteLatency feeds one completed task's submit-to-done latency into the
// rolling window behind the p99 signal. Runners call it from the node
// completion hook, under the engine baton.
func (f *Fleet) NoteLatency(lat sim.Time) {
	f.win[f.winNext] = lat
	f.winNext = (f.winNext + 1) % len(f.win)
	if f.winLen < len(f.win) {
		f.winLen++
	}
}

// rollingP99 returns the nearest-rank p99 over the window's current
// contents, 0 until anything has completed.
func (f *Fleet) rollingP99() sim.Time {
	if f.winLen == 0 {
		return 0
	}
	f.scratch = append(f.scratch[:0], f.win[:f.winLen]...)
	sort.Float64s(f.scratch)
	return serve.Percentile(f.scratch, 0.99)
}

// signals assembles one tick's policy input from the node ledgers.
func (f *Fleet) signals() Signals {
	s := Signals{P99: f.rollingP99()}
	offered := 0
	for _, m := range f.nodes {
		v := m.n.View()
		offered += v.Routed
		switch m.span.State {
		case Warming:
			s.Provisioned++
		case Active:
			s.Provisioned++
			s.Backlog += v.Outstanding()
		}
	}
	s.ArrivalRate = float64(offered-f.lastOffered) / (f.cfg.Interval / 1e9)
	f.lastOffered = offered
	return s
}

// Step advances the lifecycle one control tick: warm-ups that have elapsed
// come online, drains that have emptied retire, and — while arrivals are
// still flowing — the policy's clamped target is applied under cooldown
// hysteresis. Warm-up completion is observed at tick granularity, so a
// node's effective lead time rounds up to the next tick.
func (f *Fleet) Step(now sim.Time) {
	for _, m := range f.nodes {
		if m.span.State == Warming && now >= m.warmDone {
			// The span records the warm-up completion instant; dispatchability
			// is observed here, at the first tick past it.
			m.span.State = Active
			m.span.ActiveAt = m.warmDone
		}
	}
	for _, m := range f.nodes {
		if m.span.State == Draining && m.n.View().Outstanding() == 0 {
			m.span.State = Retired
			m.span.RetiredAt = now
		}
	}
	if f.closed || f.pol == nil {
		return
	}
	s := f.signals()
	target := f.pol.Target(s)
	if target < f.cfg.Min {
		target = f.cfg.Min
	}
	if target > f.cfg.Max {
		target = f.cfg.Max
	}
	if target == s.Provisioned {
		return
	}
	if f.haveScaled && now-f.lastScaleAt < f.cfg.Cooldown {
		return
	}
	if target > s.Provisioned {
		for i := s.Provisioned; i < target; i++ {
			state := Warming
			if f.cfg.Warmup == 0 {
				state = Active
			}
			f.provision(now, state)
		}
		f.outs++
		if target > f.peak {
			f.peak = target
		}
	} else {
		// Scale in youngest-first: the newest capacity is the burst capacity,
		// and retiring it keeps the long-lived low-id nodes' caches warm.
		rm := s.Provisioned - target
		for i := len(f.nodes) - 1; i >= 0 && rm > 0; i-- {
			m := f.nodes[i]
			if m.span.State == Active || m.span.State == Warming {
				m.span.State = Draining
				m.span.ClosedAt = now
				m.n.Close()
				rm--
			}
		}
		f.ins++
	}
	f.haveScaled = true
	f.lastScaleAt = now
}

// Finish freezes the lifecycle at the run's end instant: nodes still
// draining (or never closed) retire with the run itself, so every node has a
// complete provision-to-retire span for the cost ledger.
func (f *Fleet) Finish(end sim.Time) {
	for _, m := range f.nodes {
		if m.span.State != Retired {
			if m.span.State != Draining {
				m.span.ClosedAt = end
			}
			m.span.State = Retired
			m.span.RetiredAt = end
		}
	}
}

// Outcome is the autoscaler's run summary: the scale-out/in counts, each
// node's lifecycle span, and the cost ledger the cost-vs-SLO report prices.
type Outcome struct {
	Nodes []NodeSpan

	// NodeCycles is the summed provision-to-retire extent over all nodes,
	// in virtual cycles — warm-up and drain time included.
	NodeCycles float64

	ScaleOuts, ScaleIns int
	Peak                int // highest provisioned count reached
}

// NodeSeconds converts the cost ledger to node-seconds of provisioned
// capacity (1 cycle = 1 ns).
func (o Outcome) NodeSeconds() float64 { return o.NodeCycles / 1e9 }

// Outcome assembles the run summary; call after Finish.
func (f *Fleet) Outcome() Outcome {
	o := Outcome{
		Nodes:     make([]NodeSpan, len(f.nodes)),
		ScaleOuts: f.outs,
		ScaleIns:  f.ins,
		Peak:      f.peak,
	}
	for i, m := range f.nodes {
		o.Nodes[i] = m.span
		o.NodeCycles += m.span.RetiredAt - m.span.ProvisionedAt
	}
	return o
}
