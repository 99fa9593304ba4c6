package runners

import "repro/internal/workloads"

// RunGeMTC executes the task stream on the GeMTC baseline (see gemtcNode):
// the one-node fleet with every task presented at t0, so SuperKernel
// launches take back-to-back batches of the whole stream.
func RunGeMTC(tasks []workloads.TaskDef, cfg Config) Result {
	return runClosedLoop(tasks, cfg, "gemtc", newGeMTCNode)
}
