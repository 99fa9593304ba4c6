package checks

import (
	"go/ast"

	"repro/internal/analysis"
)

// wallclockBanned are the package-time functions that read or wait on the
// host's wall clock. Pure-value helpers (time.Duration arithmetic,
// time.Unix construction from constants) stay legal: they do not observe
// real time.
var wallclockBanned = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"NewTimer":  true,
	"NewTicker": true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
}

// Wallclock flags wall-clock reads and waits in simulation packages. Virtual
// time must come from the sim engine (Engine.Now, Proc.Sleep, sim.Timer):
// a single time.Now in a hot path makes golden runs irreproducible.
var Wallclock = &analysis.Analyzer{
	Name:      "wallclock",
	AppliesTo: inSimScope,
	Run: func(pass *analysis.Pass) {
		for _, pkg := range pass.Pkgs {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					id, ok := sel.X.(*ast.Ident)
					if !ok {
						return true
					}
					pkg := pkg.UsedPackage(id)
					if pkg == nil || pkg.Path() != "time" || !wallclockBanned[sel.Sel.Name] {
						return true
					}
					pass.Reportf(sel.Pos(), nil,
						"time.%s reads the wall clock; simulated time must come from the sim engine (Engine.Now / Proc.Sleep / sim.Timer)",
						sel.Sel.Name)
					return true
				})
			}
		}
	},
}
