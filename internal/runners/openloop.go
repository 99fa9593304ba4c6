package runners

import (
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// OpenLoop drives a scheme with timed arrivals instead of a pre-built batch:
// tasks[i] enters the system at Arrivals[i] virtual cycles whether or not
// the scheme is ready for it — the open-loop serving model, where offered
// load is an external fact and the system's only choices are to queue, serve
// or shed. Build Arrivals with a serve.Generator.
type OpenLoop struct {
	// Arrivals holds one nondecreasing virtual-cycle instant per task.
	Arrivals []sim.Time

	// Admit, when non-nil, is consulted at each arrival with the current
	// virtual time and the number of admitted-but-uncompleted tasks; a false
	// return drops the task (a serve policy's Admit satisfies this signature).
	Admit func(now sim.Time, inFlight int) bool
}

// RunOpenLoop executes timed arrivals on one device: a one-node round-robin
// fleet (RunCluster) with the admission hook passed through, so the
// single-device open loop and every fleet share one host path per scheme.
// The records carry Submit at the arrival instant and the scheme's own
// Start/Done semantics (see the node types in cluster.go).
func (s Scheme) RunOpenLoop(tasks []workloads.TaskDef, ol OpenLoop, cfg Config) (Result, []serve.Record) {
	res, cr := s.RunCluster(tasks, ClusterOpenLoop{
		Arrivals: ol.Arrivals,
		Nodes:    1,
		Admit:    func() func(sim.Time, int) bool { return ol.Admit },
	}, cfg)
	return res, cr.Recs
}
