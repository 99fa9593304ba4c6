package checks

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// orderSinkPrefixes name calls whose effect depends on invocation order:
// scheduling events, spawning processes, or pushing onto ordered containers.
// A map iteration feeding any of these inherits Go's randomized iteration
// order — the classic golden-test killer.
var orderSinkPrefixes = []string{
	"Schedule", "Spawn", "Enqueue", "Push", "Emit", "Post", "Wakeup", "Send", "Add",
}

// Maprange flags `range` over a map whose body performs order-dependent
// writes: appending to a slice, sending on a channel, or calling a
// scheduling/queueing method. Iterating a sorted slice of keys (or sorting
// the result afterwards, with a //pagoda:allow) keeps runs bit-for-bit
// reproducible.
var Maprange = &analysis.Analyzer{
	Name:      "maprange",
	AppliesTo: inSimScope,
	Run: func(pass *analysis.Pass) {
		for _, pkg := range pass.Pkgs {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					rs, ok := n.(*ast.RangeStmt)
					if !ok {
						return true
					}
					t := pkg.TypeOf(rs.X)
					if t == nil {
						return true
					}
					if _, isMap := t.Underlying().(*types.Map); !isMap {
						return true
					}
					if sink := orderDependentSink(rs.Body); sink != "" {
						pass.Reportf(rs.Pos(), nil,
							"range over map with order-dependent body (%s): map iteration order is randomized; iterate a sorted slice of keys instead",
							sink)
					}
					return true
				})
			}
		}
	},
}

// orderDependentSink scans a range body for the first order-dependent effect
// and describes it, or returns "" if the body looks commutative.
func orderDependentSink(body *ast.BlockStmt) string {
	var sink string
	ast.Inspect(body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			sink = "channel send"
			return false
		case *ast.CallExpr:
			switch fn := n.Fun.(type) {
			case *ast.Ident:
				if fn.Name == "append" {
					sink = "append"
					return false
				}
			case *ast.SelectorExpr:
				for _, p := range orderSinkPrefixes {
					if strings.HasPrefix(fn.Sel.Name, p) {
						sink = "call to " + fn.Sel.Name
						return false
					}
				}
			}
		}
		return true
	})
	return sink
}
