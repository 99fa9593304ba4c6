package harness

import (
	"fmt"

	"repro/internal/hostcpu"
	"repro/internal/workloads"
)

// CPUSchemes regenerates the paper's §6.2 CPU baseline selection: "we
// implemented OpenMP with data parallelism, OS-based task scheduling,
// Python-based thread pooling, and PThreads-based task parallelism.
// PThreads obtained the best results."
func CPUSchemes(p Params) *Report {
	p = p.fill()
	r := newReport("cpuschemes", fmt.Sprintf("CPU execution schemes (%d tasks; ms; lower is better)", p.Tasks),
		"Benchmark", "OpenMP", "OS-sched", "Python-pool", "PThreads", "Best")
	// The bake-off compares several CPU schemes internally, so each benchmark
	// is one cell (via the sweep's escape hatch) rather than one cell per
	// scheme.
	names := []string{"MB", "CONV", "MM", "3DES"}
	s := newSweep(p)
	results := make([][]hostcpu.SchemeResult, len(names))
	for i, name := range names {
		b, _ := workloads.ByName(name)
		s.add(func() {
			defs := b.Make(workloads.Options{Tasks: p.Tasks, Threads: 128, Seed: p.Seed})
			cycles := make([]float64, len(defs))
			for j := range defs {
				cycles[j] = defs[j].CPUCycles
			}
			results[i] = hostcpu.CompareCPUSchemes(hostcpu.Xeon20(), cycles)
		})
	}
	s.run()

	for i, name := range names {
		cells := []string{name}
		best := results[i][0]
		for _, res := range results[i] {
			cells = append(cells, ms(res.Elapsed))
			r.set(name+"/"+res.Scheme, res.Elapsed)
			if res.Elapsed < best.Elapsed {
				best = res
			}
		}
		cells = append(cells, best.Scheme)
		r.addRow(cells...)
	}
	r.note("paper: PThreads obtained the best results (it is the Fig. 5 CPU baseline)")
	return r
}
