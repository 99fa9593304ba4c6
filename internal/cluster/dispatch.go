package cluster

import (
	"fmt"

	"repro/internal/serve"
	"repro/internal/sim"
)

// A Fleet is the node set the dispatcher routes over. StaticFleet is the
// fixed form; internal/autoscale provides the elastic one. The dispatcher
// only ever sees the dispatchable subset.
type Fleet interface {
	// Snapshot returns the currently dispatchable nodes together with each
	// node's stable fleet-wide id (for per-node record attribution), in id
	// order. The slices may be reused across calls; callers consume them
	// before yielding the engine baton.
	Snapshot() ([]Node, []int)

	// CloseAll signals that no further Submit calls will come anywhere:
	// every remaining node drains and the fleet stops scaling.
	CloseAll()
}

// staticFleet is a Fleet whose snapshot never changes.
type staticFleet struct {
	nodes []Node
	ids   []int
}

// StaticFleet returns a fixed Fleet: every node is dispatchable for the
// whole run under its slice index, and CloseAll closes them in index order.
func StaticFleet(nodes []Node) Fleet {
	ids := make([]int, len(nodes))
	for i := range ids {
		ids[i] = i
	}
	return staticFleet{nodes: nodes, ids: ids}
}

func (f staticFleet) Snapshot() ([]Node, []int) { return f.nodes, f.ids }

func (f staticFleet) CloseAll() {
	for _, n := range f.nodes {
		n.Close()
	}
}

// Dispatcher is the fleet's front end: one engine process that consumes an
// open-loop arrival stream and routes each task to a node under the
// configured Policy. It sleeps to each arrival instant but never blocks on a
// node's spawn path (Submit queues), so routing decisions always happen at
// true arrival time with fresh NodeViews. The node set is re-snapshotted at
// every arrival, so under an elastic Fleet tasks flow to nodes that finished
// warming and away from nodes that began draining without any coordination
// beyond the shared virtual clock.
type Dispatcher struct {
	// Arrivals holds one nondecreasing virtual-cycle instant per task.
	Arrivals []sim.Time

	// Classes optionally gives each task a workload class for
	// class-affine policies; nil means every task is class 0.
	Classes []int

	// Policy picks among the snapshot's nodes per arrival; nil means
	// round-robin. The policy sees only the dispatchable subset, in id
	// order.
	Policy Policy

	// Fleet supplies the dispatchable node set per arrival.
	Fleet Fleet
}

// Validate panics on a malformed dispatcher: arrival count mismatch,
// decreasing arrivals, a Classes slice of the wrong length, a missing
// fleet, or a fleet with nothing dispatchable at start. Spawn calls it
// before spawning anything.
func (d Dispatcher) Validate(n int) {
	if d.Fleet == nil {
		panic("cluster: dispatcher with no fleet")
	}
	if nodes, _ := d.Fleet.Snapshot(); len(nodes) == 0 {
		panic("cluster: dispatcher fleet has no dispatchable nodes")
	}
	if len(d.Arrivals) != n {
		panic(fmt.Sprintf("cluster: %d arrivals for %d tasks", len(d.Arrivals), n))
	}
	if d.Classes != nil && len(d.Classes) != n {
		panic(fmt.Sprintf("cluster: %d classes for %d tasks", len(d.Classes), n))
	}
	for i := 1; i < n; i++ {
		if d.Arrivals[i] < d.Arrivals[i-1] {
			panic(fmt.Sprintf("cluster: arrivals decrease at %d: %v < %v", i, d.Arrivals[i], d.Arrivals[i-1]))
		}
	}
}

// Spawn installs the dispatcher as a front-end process on eng. For each
// task it writes the Submit instant into recs[ti] and the chosen node's
// stable fleet id into nodeOf[ti]; Start/Done/Dropped are the owning node's
// to fill. After the last arrival it closes the whole fleet so every node
// drains. The policy's pick indexes the snapshot; nodeOf records the
// underlying fleet id, which survives scale events.
func (d Dispatcher) Spawn(eng *sim.Engine, recs []serve.Record, nodeOf []int) {
	d.Validate(len(recs))
	if len(nodeOf) != len(recs) {
		panic(fmt.Sprintf("cluster: %d node slots for %d records", len(nodeOf), len(recs)))
	}
	pol := d.Policy
	if pol == nil {
		pol = NewRoundRobin()
	}
	eng.Spawn("dispatcher", func(p *sim.Proc) {
		var views []NodeView
		for ti := range d.Arrivals {
			recs[ti].Submit = waitUntil(p, d.Arrivals[ti])
			nodes, ids := d.Fleet.Snapshot()
			if len(nodes) == 0 {
				panic(fmt.Sprintf("cluster: fleet has no dispatchable nodes at task %d", ti))
			}
			views = views[:0]
			for _, nd := range nodes {
				views = append(views, nd.View())
			}
			var t Task
			if d.Classes != nil {
				t.Class = d.Classes[ti]
			}
			n := pol.Pick(p.Now(), t, views)
			if n < 0 || n >= len(nodes) {
				panic(fmt.Sprintf("cluster: policy %s picked node %d of %d", pol.Name(), n, len(nodes)))
			}
			nodeOf[ti] = ids[n]
			nodes[n].Submit(p, ti)
		}
		d.Fleet.CloseAll()
	})
}
