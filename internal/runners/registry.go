package runners

import "repro/internal/workloads"

// Scheme is one GPU execution scheme under a stable key: its closed-loop
// runner and the constructor of its fleet node, which backs every
// timed-arrival run (RunCluster, and RunOpenLoop as a one-node fleet). The
// registry is the single source of truth the harness tables, the CLI's
// -scheme filter, the perf baselines and the cross-scheme test gates
// (determinism, conservation, open-loop golden) all derive from — a scheme
// registered here inherits every gate and every report column without
// further wiring.
type Scheme struct {
	Key     string // stable id: flags, Values keys, perf metric names
	Display string // table cell / report name

	Run func([]workloads.TaskDef, Config) Result

	newNode nodeFactory
}

// RunCluster executes timed arrivals on a fleet of this scheme's nodes —
// fixed, or elastic when co.Scaler asks for it. Per-node serve spans land on
// "node%02d/serve-<key>" tracks.
func (s Scheme) RunCluster(tasks []workloads.TaskDef, co ClusterOpenLoop, cfg Config) (Result, ClusterRun) {
	return runFleet(tasks, co, cfg, s.Key, s.newNode)
}

// Schemes returns the GPU scheme registry in canonical report order. Only
// GPU schemes appear: the CPU baselines (PThreads, sequential) have no
// open-loop or fleet form to register.
func Schemes() []Scheme {
	return []Scheme{
		{"hyperq", "CUDA-HyperQ", RunHyperQ, newHyperQNode},
		{"gemtc", "GeMTC", RunGeMTC, newGeMTCNode},
		{"pagoda", "Pagoda", RunPagoda, newPagodaNode},
		{"zorua", "Zorua", RunZorua, newZoruaNode},
	}
}

// SchemeKeys returns the registered keys in canonical order.
func SchemeKeys() []string {
	ss := Schemes()
	keys := make([]string, len(ss))
	for i, s := range ss {
		keys[i] = s.Key
	}
	return keys
}

// SchemeByKey looks a scheme up by its stable key.
func SchemeByKey(key string) (Scheme, bool) {
	for _, s := range Schemes() {
		if s.Key == key {
			return s, true
		}
	}
	return Scheme{}, false
}
