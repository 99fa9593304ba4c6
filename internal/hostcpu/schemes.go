package hostcpu

import (
	"fmt"

	"repro/internal/sim"
)

// The paper evaluated four CPU execution schemes before picking its baseline
// ("we implemented OpenMP with data parallelism, OS-based task scheduling,
// Python-based thread pooling, and PThreads-based task parallelism. PThreads
// obtained the best results", §6.2). This file models the three rejected
// schemes so that comparison is reproducible.

// SchemeResult is one CPU scheme's makespan for a task set.
type SchemeResult struct {
	Scheme  string
	Elapsed sim.Time
}

// RunOpenMP executes each task as a data-parallel loop over the cores: the
// fork-join model, where every task is spread over all cores and pays a
// fork-join barrier. Narrow tasks parallelize poorly this way — per-task
// work / cores is small next to the barrier.
func RunOpenMP(eng *sim.Engine, cfg Config, tasks []float64) SchemeResult {
	const (
		forkJoinCost = sim.Time(2600) // per-task team fork + barrier join
		// efficiency < 1: cache-line sharing and uneven chunking inside
		// one small task.
		efficiency = 0.75
	)
	var end sim.Time
	eng.Spawn("omp-host", func(p *sim.Proc) {
		for _, cycles := range tasks {
			per := cycles / (float64(cfg.Cores) * efficiency)
			p.Sleep(forkJoinCost + per/cfg.FreqGHz)
		}
		end = eng.Now()
	})
	eng.Run()
	return SchemeResult{Scheme: "OpenMP", Elapsed: end}
}

// RunOSSched models scheduling each task as a short-lived OS thread/process:
// full parallelism, but kernel-level dispatch costs (thread creation,
// context switches) per task dwarf the pool's.
func RunOSSched(eng *sim.Engine, cfg Config, tasks []float64) SchemeResult {
	cfg.DispatchCost = 12_000 // ~12 us: clone + schedule + reap
	end, _ := Run(eng, cfg, tasks)
	return SchemeResult{Scheme: "OS-sched", Elapsed: end}
}

// RunPythonPool models a CPython thread pool: cheap dispatch, but the GIL
// serializes execution — only a small fraction of each task (native
// extensions releasing the lock) overlaps.
func RunPythonPool(eng *sim.Engine, cfg Config, tasks []float64) SchemeResult {
	const (
		interpreterOverhead = 8.0  // interpreted-loop slowdown on task cycles
		parallelFraction    = 0.15 // work done outside the GIL
	)
	var end sim.Time
	eng.Spawn("py-host", func(p *sim.Proc) {
		var serial, parallel float64
		for _, cycles := range tasks {
			cyc := cycles * interpreterOverhead
			serial += cyc * (1 - parallelFraction)
			parallel += cyc * parallelFraction
		}
		p.Sleep((serial + parallel/float64(cfg.Cores)) / cfg.FreqGHz)
		end = eng.Now()
	})
	eng.Run()
	return SchemeResult{Scheme: "Python-pool", Elapsed: end}
}

// RunPThreadsScheme wraps the Pool baseline in the same result shape.
func RunPThreadsScheme(eng *sim.Engine, cfg Config, tasks []float64) SchemeResult {
	end, _ := Run(eng, cfg, tasks)
	return SchemeResult{Scheme: "PThreads", Elapsed: end}
}

// CompareCPUSchemes runs a task set (each task's cost in CPU cycles) under
// all four CPU schemes, each on a fresh engine, and returns the results in
// the paper's order.
func CompareCPUSchemes(cfg Config, tasks []float64) []SchemeResult {
	runs := []func(*sim.Engine, Config, []float64) SchemeResult{
		RunOpenMP, RunOSSched, RunPythonPool, RunPThreadsScheme,
	}
	out := make([]SchemeResult, 0, len(runs))
	for _, run := range runs {
		eng := sim.New()
		out = append(out, run(eng, cfg, tasks))
		eng.Close()
	}
	return out
}

func (r SchemeResult) String() string {
	return fmt.Sprintf("%s: %.2f ms", r.Scheme, r.Elapsed/1e6)
}
