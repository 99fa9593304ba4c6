// Package cluster is the fleet layer over the single-device serving stack:
// it models N GPUs (each with its own PCIe bus and execution-scheme instance)
// behind one front-end dispatcher, all simulated on a single discrete-event
// engine sharing one virtual clock. One engine — not one per device — is the
// load-bearing choice: every cross-node ordering question (which node was
// shorter when task 41 arrived?) is resolved in deterministic virtual time,
// so fleet runs stay bit-identical and race-free at any harness parallelism,
// the property Zorua-style decoupling of task placement from physical
// resources needs to be measurable at all.
//
// The package deliberately knows nothing about the execution schemes: a
// node is anything implementing Node (internal/runners provides the
// scheme-backed implementations), a Fleet (StaticFleet, or
// internal/autoscale's elastic one) supplies the dispatchable nodes, a Policy
// picks a node per arrival from the dispatcher-visible NodeViews, and
// per-node admission stays inside the node (reusing serve.Policy), at the
// scheme's own presentation point. The single-device open loop is a one-node
// fleet over this same Dispatcher.
//
// Determinism rules: the only pseudo-randomness is the explicitly seeded
// prng.Xorshift behind PowerOfTwo (the randsource rule); policies break ties by
// lowest node index; no wall clock, map iteration or raw goroutines appear
// anywhere in the fleet path.
package cluster

import (
	"fmt"

	"repro/internal/sim"
)

// NodeView is one node's dispatcher-visible accounting at an instant. The
// counters are cumulative; policies work off the two derived quantities.
type NodeView struct {
	Routed  int // tasks the dispatcher handed to this node
	Started int // tasks handed on to the scheme's own spawn path
	Done    int // tasks completed by the scheme
	Dropped int // tasks rejected by the node's admission policy
}

// Outstanding returns the node's routed-but-unfinished task count — the load
// signal LeastOutstanding and PowerOfTwo balance on.
func (v NodeView) Outstanding() int { return v.Routed - v.Done - v.Dropped }

// Queued returns the tasks still waiting in the node's host-side inbox,
// before the scheme's spawn path has picked them up — the signal
// JoinShortestQueue balances on.
func (v NodeView) Queued() int { return v.Routed - v.Started - v.Dropped }

// Conserved reports whether the node's counters balance: everything routed
// was either completed or explicitly dropped. Only meaningful after a run
// has drained.
func (v NodeView) Conserved() bool { return v.Routed == v.Done+v.Dropped }

// A Node is one device (plus bus and scheme instance) behind the dispatcher.
// Implementations live in internal/runners; all methods are called under the
// engine baton, so plain fields need no locking.
type Node interface {
	Name() string

	// View returns the node's current accounting. The dispatcher reads every
	// node's view at each arrival instant and hands the slice to the policy.
	View() NodeView

	// Submit hands task ti to the node at p's current virtual time. It must
	// not block past the instant — nodes queue internally — so a saturated
	// node can never head-of-line-block dispatch to its siblings.
	Submit(p *sim.Proc, ti int)

	// Close signals that no further Submit calls will come; the node drains
	// its queue, waits out in-flight work and shuts its scheme down.
	Close()
}

// CheckConservation verifies submitted = done + dropped on every node and
// fleet-wide, returning a descriptive error naming the first leaking node.
// Experiments call it (and panic) before publishing numbers; tests assert it
// for every policy x backend combination.
func CheckConservation(views []NodeView, offered int) error {
	routed := 0
	for i, v := range views {
		if !v.Conserved() {
			return fmt.Errorf("cluster: node %d leaked tasks: routed %d, done %d, dropped %d",
				i, v.Routed, v.Done, v.Dropped)
		}
		routed += v.Routed
	}
	if routed != offered {
		return fmt.Errorf("cluster: fleet routed %d of %d offered tasks", routed, offered)
	}
	return nil
}

// waitUntil sleeps p to the arrival instant and returns the Submit timestamp
// to record: the arrival time, clamped to the clock when the sleep target
// rounds a float ulp past it, so Submit <= service start always holds.
func waitUntil(p *sim.Proc, at sim.Time) sim.Time {
	if at > p.Now() {
		p.Sleep(at - p.Now())
	}
	if p.Now() < at {
		return p.Now()
	}
	return at
}
