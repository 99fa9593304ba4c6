package runners

import "repro/internal/workloads"

// RunPagoda executes the task stream on the Pagoda runtime: spawner threads
// copy each task's input asynchronously and call taskSpawn immediately (the
// continuous-spawning model of Fig. 1a); output copies are enqueued as the
// host observes completions through the lazy copy-back protocol; waitAll
// drains the tail. It is the one-node fleet (pagodaNode) with every task
// presented at t0.
func RunPagoda(tasks []workloads.TaskDef, cfg Config) Result {
	return runClosedLoop(tasks, cfg, "pagoda", newPagodaNode)
}
