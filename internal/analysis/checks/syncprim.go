package checks

import (
	"go/ast"
	"go/token"
	"strings"

	"repro/internal/analysis"
)

// syncprimBanned are the sync primitives that block on OS-scheduler order
// rather than virtual-time order. (sync/atomic and sync.Pool are left alone:
// they do not impose a wake-up ordering of their own.)
var syncprimBanned = map[string]bool{
	"Mutex":     true,
	"RWMutex":   true,
	"WaitGroup": true,
	"Cond":      true,
}

// Syncprim flags OS-level synchronization — sync.Mutex/RWMutex/WaitGroup/
// Cond and raw channel operations — in simulation packages outside
// internal/sim. Proc code paths must block on the engine's primitives
// (sim.Sem, sim.Signal, sim.Timer): those wake in deterministic virtual-time
// order, whereas a mutex or channel wakes in whatever order the Go runtime
// picks. internal/sim itself is exempt: its process-wide pool of idle proc
// coroutines is shared by engines on different goroutines and guarded by a
// mutex, and that is exactly where such code belongs.
var Syncprim = &analysis.Analyzer{
	Name: "syncprim",
	Doc:  "forbid sync primitives and raw channel ops outside internal/sim; block on sim.Sem/sim.Signal/sim.Timer",
	AppliesTo: func(relPath string) bool {
		return inSimScope(relPath) &&
			relPath != "internal/sim" && !strings.HasPrefix(relPath, "internal/sim/")
	},
	Run: func(pass *analysis.Pass) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					id, ok := n.X.(*ast.Ident)
					if !ok {
						return true
					}
					if pkg := pass.UsedPackage(id); pkg != nil && pkg.Path() == "sync" && syncprimBanned[n.Sel.Name] {
						pass.Reportf(n.Pos(),
							"sync.%s blocks in OS-scheduler order; proc code must use the engine's primitives (sim.Sem / sim.Signal / sim.Timer)",
							n.Sel.Name)
					}
				case *ast.SendStmt:
					pass.Reportf(n.Pos(),
						"raw channel send bypasses the event loop; signal procs with sim.Signal or sim.Sem")
				case *ast.UnaryExpr:
					if n.Op == token.ARROW {
						pass.Reportf(n.Pos(),
							"raw channel receive blocks outside virtual time; wait on sim.Signal / sim.Sem instead")
					}
				case *ast.ChanType:
					pass.Reportf(n.Pos(),
						"channel type in proc code; hand data over under the baton and signal with sim primitives")
					return false // the banned node is the chan type itself; don't descend
				case *ast.SelectStmt:
					pass.Reportf(n.Pos(),
						"select races its cases in runtime order; model alternatives with sim events or sim.Signal")
				}
				return true
			})
		}
	},
}
