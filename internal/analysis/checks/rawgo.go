package checks

import (
	"go/ast"
	"strings"

	"repro/internal/analysis"
)

// Rawgo flags `go` statements anywhere outside internal/sim. The engine's
// baton design (one runnable process at a time, each on a coroutine that a
// single dispatch loop resumes) is what makes the simulator deterministic; a
// raw goroutine runs outside the baton and races the event loop. Concurrency
// in simulation and driver code must be expressed as engine processes
// (sim.Engine.Spawn).
var Rawgo = &analysis.Analyzer{
	Name: "rawgo",
	AppliesTo: func(relPath string) bool {
		return relPath != "internal/sim" && !strings.HasPrefix(relPath, "internal/sim/")
	},
	Run: func(pass *analysis.Pass) {
		for _, pkg := range pass.Pkgs {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok {
						pass.Reportf(g.Pos(), nil,
							"go statement outside internal/sim races the engine's execution baton; express concurrency as a sim process (Engine.Spawn)")
					}
					return true
				})
			}
		}
	},
}
