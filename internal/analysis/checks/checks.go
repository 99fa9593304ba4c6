// Package checks holds the project-specific determinism analyzers run by
// cmd/pagodavet. Each analyzer enforces one rule from DESIGN.md's
// "Determinism rules" section; fixtures under testdata/ demonstrate the
// true positives and the //pagoda:allow suppression syntax.
package checks

import (
	"strings"

	"repro/internal/analysis"
)

// All lists every analyzer in the order pagodavet runs them. Each runs once
// over the packages its AppliesTo admits: the per-file checks loop over them,
// and the interprocedural ones (taintflow and unused, AppliesTo nil) see the
// whole load set.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Wallclock,
		Randsource,
		Maprange,
		Floatorder,
		Rawgo,
		Syncprim,
		Goroutine,
		Taintflow,
		Unused,
	}
}

// simScoped are the module-relative package paths that hold simulation state
// or run under the sim engine's virtual clock. The determinism rules bind
// here; cmd/, examples/ and reporting packages (harness, trace) may touch the
// wall clock for user-facing progress output.
var simScoped = []string{
	"internal/sim",
	"internal/gpu",
	"internal/cuda",
	"internal/pcie",
	"internal/core",
	"internal/runners",
	"internal/workloads",
	"internal/hostcpu",
	"internal/cluster",
	"internal/tenancy",
	"internal/autoscale",
	"internal/prng",
}

// inSimScope reports whether relPath is one of the simulation packages (or a
// future subpackage of one).
func inSimScope(relPath string) bool {
	for _, s := range simScoped {
		if relPath == s || strings.HasPrefix(relPath, s+"/") {
			return true
		}
	}
	return false
}
