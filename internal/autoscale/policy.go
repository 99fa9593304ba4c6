package autoscale

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Signals is one control-loop tick's observation of the fleet — everything a
// scaling policy may look at. All fields derive from the simulation's own
// deterministic state (node ledgers and the rolling completion window), never
// from the host, so identical runs see identical signal sequences.
type Signals struct {
	Provisioned int // nodes paying for capacity: warming + active

	// Backlog is the routed-but-unfinished task count across active nodes —
	// the queue-depth signal reactive scaling keys on.
	Backlog int

	// ArrivalRate is the offered rate observed over the last tick,
	// tasks/second — the raw input the predictive policy smooths.
	ArrivalRate float64

	// P99 is the rolling p99 latency over the most recent completions
	// (DefaultWindow of them); 0 until anything has completed.
	P99 sim.Time
}

// A Policy maps one tick's Signals to the desired provisioned-node count.
// The fleet clamps the target to [Min, Max] and applies cooldown hysteresis;
// the policy itself decides only how many nodes the load wants. Policies may
// keep state (Predictive's EWMA), so a fresh policy must be constructed per
// run — Config carries a factory, exactly like cluster.Policy.
type Policy interface {
	Target(s Signals) int
}

// Reactive scales on what is already hurting: per-node backlog beyond High
// (or rolling p99 beyond SLO) adds Step nodes, per-node backlog at or below
// Low retires one. Between the watermarks the policy holds the fleet steady —
// the hysteresis band that keeps a noisy signal from flapping the fleet.
type Reactive struct {
	High int      // scale out at per-node backlog >= High
	Low  int      // scale in at per-node backlog <= Low
	SLO  sim.Time // rolling-p99 scale-out trigger; 0 disables
	Step int      // nodes added per scale-out decision (0 means 1)
}

// Target implements Policy.
func (r Reactive) Target(s Signals) int {
	if s.Provisioned < 1 {
		return 1
	}
	step := r.Step
	if step < 1 {
		step = 1
	}
	perNode := float64(s.Backlog) / float64(s.Provisioned)
	if perNode >= float64(r.High) || (r.SLO > 0 && s.P99 > r.SLO && s.Backlog > s.Provisioned) {
		return s.Provisioned + step
	}
	// Never shrink while the tail is burning: the low-backlog signal alone
	// can look healthy right after a burst drained into slow service.
	if perNode <= float64(r.Low) && (r.SLO == 0 || s.P99 <= r.SLO) {
		return s.Provisioned - 1
	}
	return s.Provisioned
}

// Predictive provisions for where the arrival rate is heading rather than
// where the queue already is: an exponentially weighted moving average of the
// observed rate, divided by one node's provisioned capacity with a headroom
// margin. The EWMA is seeded with the first observation (no cold-start bias)
// and converges monotonically under a constant rate — pinned by property
// test — so warm-up lead time comes from Headroom, not estimator overshoot.
type Predictive struct {
	Alpha    float64 // EWMA gain per tick, in (0, 1]
	PerNode  float64 // tasks/second one node is provisioned for
	Headroom float64 // capacity margin multiplier, >= 1

	est  float64
	seen bool
}

// NewPredictive returns a fresh estimator for one run.
func NewPredictive(alpha, perNode, headroom float64) *Predictive {
	return &Predictive{Alpha: alpha, PerNode: perNode, Headroom: headroom}
}

// Target implements Policy.
func (p *Predictive) Target(s Signals) int {
	if !p.seen {
		p.est, p.seen = s.ArrivalRate, true
	} else {
		p.est += p.Alpha * (s.ArrivalRate - p.est)
	}
	want := math.Min(math.Ceil(p.est*p.Headroom/p.PerNode), maxTarget) // int(+Inf) is no node count
	if !(want >= 1) {
		want = 1
	}
	return int(want)
}

const maxTarget = math.MaxInt32 // far above any fleet's Max, which clamps it; an int everywhere

// Tuning bundles the signal thresholds the built-in policies are constructed
// from, so experiments can sweep "aggressiveness" as one knob instead of five.
type Tuning struct {
	High, Low int      // reactive per-node backlog watermarks
	SLO       sim.Time // reactive rolling-p99 trigger (0 disables)
	Step      int      // reactive scale-out step

	Alpha       float64 // predictive EWMA gain per tick
	PerNodeRate float64 // predictive per-node capacity, tasks/second
	Headroom    float64 // predictive capacity margin
}

// Validate rejects a tuning no policy can run on: a non-positive or
// non-finite PerNodeRate (a target of +Inf nodes), Alpha outside (0, 1],
// Headroom below 1 or non-finite, Low above High, or a negative Step or SLO.
func (t Tuning) Validate() error {
	switch {
	case !(t.PerNodeRate > 0) || math.IsInf(t.PerNodeRate, 1):
		return fmt.Errorf("autoscale: per-node rate %v is not a positive finite tasks/s", t.PerNodeRate)
	case !(t.Alpha > 0 && t.Alpha <= 1):
		return fmt.Errorf("autoscale: EWMA gain %v is outside (0, 1]", t.Alpha)
	case !(t.Headroom >= 1) || math.IsInf(t.Headroom, 1):
		return fmt.Errorf("autoscale: headroom %v is not a finite multiplier >= 1", t.Headroom)
	case t.Low > t.High:
		return fmt.Errorf("autoscale: low watermark %d above high watermark %d", t.Low, t.High)
	case t.Step < 0:
		return fmt.Errorf("autoscale: scale-out step %d is negative", t.Step)
	case !(t.SLO >= 0):
		return fmt.Errorf("autoscale: p99 trigger %v is not a non-negative cycle count", t.SLO)
	}
	return nil
}

// DefaultTuning is the gentle end of the sweep: wide watermarks, single-node
// steps, heavy smoothing. PerNodeRate matches the cluster_scaling headline
// (one node holds 64k tasks/s under the 1000us p99 SLO).
func DefaultTuning() Tuning {
	return Tuning{High: 16, Low: 2, SLO: 0, Step: 1,
		Alpha: 0.25, PerNodeRate: 64e3, Headroom: 1.25}
}

// Aggressive returns the tuning's twitchy variant: watermarks halved, step
// doubled, smoothing lightened — the fleet reacts sooner and harder, trading
// node-seconds for tail latency.
func (t Tuning) Aggressive() Tuning {
	t.High = (t.High + 1) / 2
	t.Step *= 2
	t.Alpha = math.Min(1, t.Alpha*2)
	t.Headroom += 0.25
	return t
}

// PolicyNames lists the selectable scaling policies in presentation order.
func PolicyNames() []string { return []string{"reactive", "predictive"} }

// NewPolicy returns a factory building a fresh policy per run for one of the
// names in PolicyNames, parameterized by tu, or tu's Validate error.
func NewPolicy(name string, tu Tuning) (func() Policy, error) {
	if err := tu.Validate(); err != nil {
		return nil, err
	}
	switch name {
	case "reactive":
		return func() Policy {
			return Reactive{High: tu.High, Low: tu.Low, SLO: tu.SLO, Step: tu.Step}
		}, nil
	case "predictive":
		return func() Policy {
			return NewPredictive(tu.Alpha, tu.PerNodeRate, tu.Headroom)
		}, nil
	default:
		return nil, fmt.Errorf("autoscale: unknown scaling policy %q (have %v)", name, PolicyNames())
	}
}
