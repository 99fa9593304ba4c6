package cluster

import (
	"fmt"

	"repro/internal/prng"
	"repro/internal/sim"
)

// Task is the arrival-time information a dispatch policy may inspect: the
// task's class (workload family), which ClassAffinity keys on. Class is 0
// for single-workload runs.
type Task struct {
	Class int
}

// A Policy picks the node for one arriving task from the fleet's current
// NodeViews. Policies may keep state (RoundRobin's cursor, PowerOfTwo's
// RNG); a fresh policy must be constructed per run, exactly like
// serve's admission policies. Ties always break toward the lowest node index so choices
// are deterministic.
type Policy interface {
	Name() string
	Pick(now sim.Time, t Task, nodes []NodeView) int
}

// RoundRobin cycles through the nodes in index order regardless of their
// state — the baseline that needs no feedback signal, and the policy under
// which a 1-node fleet reproduces the single-device serving path.
type RoundRobin struct{ next int }

// NewRoundRobin returns a cursor starting at node 0.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Policy.
func (*RoundRobin) Name() string { return "rr" }

// Pick implements Policy.
func (p *RoundRobin) Pick(_ sim.Time, _ Task, nodes []NodeView) int {
	n := p.next % len(nodes)
	p.next++
	return n
}

// LeastOutstanding routes to the node with the fewest routed-but-unfinished
// tasks — the full-information load balancer (queued and in-service both
// count, so long-running service smears into the signal).
type LeastOutstanding struct{}

// Name implements Policy.
func (LeastOutstanding) Name() string { return "least" }

// Pick implements Policy.
func (LeastOutstanding) Pick(_ sim.Time, _ Task, nodes []NodeView) int {
	return argmin(nodes, NodeView.Outstanding)
}

// JoinShortestQueue routes to the node whose host-side inbox is shortest —
// the classic JSQ policy, blind to work already in service.
type JoinShortestQueue struct{}

// Name implements Policy.
func (JoinShortestQueue) Name() string { return "jsq" }

// Pick implements Policy.
func (JoinShortestQueue) Pick(_ sim.Time, _ Task, nodes []NodeView) int {
	return argmin(nodes, NodeView.Queued)
}

// PowerOfTwo samples two distinct nodes with the fleet's seeded RNG and
// routes to the less-loaded of the pair (lower index on ties) — the
// power-of-two-choices policy, which buys most of JSQ's balance with two
// probes instead of a full scan. With one node it degenerates to that node.
type PowerOfTwo struct{ rng *prng.Xorshift }

// NewPowerOfTwo returns a sampler seeded for one run. Identical seeds
// produce identical probe sequences, keeping fleet runs bit-deterministic.
func NewPowerOfTwo(seed int64) *PowerOfTwo { return &PowerOfTwo{rng: prng.New(seed)} }

// Name implements Policy.
func (*PowerOfTwo) Name() string { return "p2c" }

// Pick implements Policy.
func (p *PowerOfTwo) Pick(_ sim.Time, _ Task, nodes []NodeView) int {
	if len(nodes) == 1 {
		return 0
	}
	a := p.rng.Intn(len(nodes))
	b := p.rng.Intn(len(nodes) - 1)
	if b >= a {
		b++ // second probe drawn from the remaining nodes, so a != b
	}
	if a > b {
		a, b = b, a // lower index wins ties
	}
	if nodes[b].Outstanding() < nodes[a].Outstanding() {
		return b
	}
	return a
}

// ClassAffinity pins each task class to a home node (class mod N), the
// locality-first policy: every task of a class lands where its kernel and
// working set are already resident. It never spills to another node, however
// deep the home inbox grows, which makes single-class workloads the policy's
// worst case (the whole fleet collapses onto one node — the "where dispatch
// policy breaks scaling" point of the cluster_scaling experiment).
type ClassAffinity struct{}

// Name implements Policy.
func (ClassAffinity) Name() string { return "affinity" }

// Pick implements Policy.
func (ClassAffinity) Pick(_ sim.Time, t Task, nodes []NodeView) int {
	home := t.Class % len(nodes)
	if home < 0 {
		home += len(nodes)
	}
	return home
}

// PolicyNames lists the selectable policies in presentation order.
func PolicyNames() []string { return []string{"rr", "least", "jsq", "p2c", "affinity"} }

// NewPolicy returns a factory building a fresh policy per run for one of the
// names in PolicyNames (seed feeds PowerOfTwo's RNG; the rest ignore it).
func NewPolicy(name string, seed int64) (func() Policy, error) {
	switch name {
	case "rr":
		return func() Policy { return NewRoundRobin() }, nil
	case "least":
		return func() Policy { return LeastOutstanding{} }, nil
	case "jsq":
		return func() Policy { return JoinShortestQueue{} }, nil
	case "p2c":
		return func() Policy { return NewPowerOfTwo(seed) }, nil
	case "affinity":
		return func() Policy { return ClassAffinity{} }, nil
	default:
		return nil, fmt.Errorf("cluster: unknown dispatch policy %q (have %v)", name, PolicyNames())
	}
}

// argmin returns the index of the node minimizing metric, lowest index on
// ties — the deterministic tie-break every policy shares.
func argmin(nodes []NodeView, metric func(NodeView) int) int {
	best, bestV := 0, metric(nodes[0])
	for i := 1; i < len(nodes); i++ {
		if v := metric(nodes[i]); v < bestV {
			best, bestV = i, v
		}
	}
	return best
}
