package checks

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Floatorder flags non-associative floating-point accumulation whose
// iteration order is not fixed. (a+b)+c != a+(b+c) in float64, so a sum
// folded in map-range order, channel-arrival order, or goroutine
// interleaving order produces different bits run to run even when the
// multiset of addends is identical — the one class of nondeterminism that
// survives a fully deterministic event order, and the first thing that
// would break bit-for-bit golden times the moment the engine is sharded
// across workers (ROADMAP open item 2). Three shapes are flagged:
//
//   - a float compound assignment (+=, -=, *=, /=, or x = x op ...) inside
//     a range over a map
//   - the same inside a range over a channel (arrival order is whatever the
//     senders raced to)
//   - a float accumulation into a variable captured from outside a
//     goroutine's function literal (merged partial sums ordered by the OS
//     scheduler)
//
// The fix is always the same: accumulate into an indexed slot (per-key,
// per-worker) and fold in a sorted, fixed order afterwards — or justify
// with //pagoda:allow floatorder <reason> when the fold is provably
// order-insensitive (e.g. integral values below 2^53).
var Floatorder = &analysis.Analyzer{
	Name: "floatorder",
	AppliesTo: func(relPath string) bool {
		switch relPath {
		case "internal/serve", "internal/harness", "internal/trace":
			return true
		}
		return inSimScope(relPath)
	},
	Run: func(pass *analysis.Pass) {
		for _, pkg := range pass.Pkgs {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.RangeStmt:
						t := pkg.TypeOf(n.X)
						if t == nil {
							return true
						}
						switch t.Underlying().(type) {
						case *types.Map:
							reportFloatAccum(pass, pkg, n.Body, "range over map iterates in randomized order")
						case *types.Chan:
							reportFloatAccum(pass, pkg, n.Body, "range over channel folds in arrival order")
						}
					case *ast.GoStmt:
						if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
							reportCapturedFloatAccum(pass, pkg, lit)
						}
					}
					return true
				})
			}
		}
	},
}

// floatAccumTarget returns the accumulated-into identifier if stmt is a
// floating-point accumulation (x op= y, or x = x op ... mentioning x on the
// right), else nil.
func floatAccumTarget(pkg *analysis.Package, stmt *ast.AssignStmt) *ast.Ident {
	if len(stmt.Lhs) != 1 {
		return nil
	}
	id, ok := stmt.Lhs[0].(*ast.Ident)
	if !ok || !isFloat(pkg.TypeOf(id)) {
		return nil
	}
	switch stmt.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return id
	case token.ASSIGN:
		// x = x + ...: the target appears inside the RHS expression.
		obj := pkg.Info.Uses[id]
		if obj == nil {
			return nil
		}
		found := false
		ast.Inspect(stmt.Rhs[0], func(n ast.Node) bool {
			if r, ok := n.(*ast.Ident); ok && pkg.Info.Uses[r] == obj {
				found = true
			}
			return !found
		})
		if found {
			return id
		}
	}
	return nil
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// reportFloatAccum flags every float accumulation directly inside body
// (nested range statements run their own check, so their bodies are skipped
// to avoid double reports).
func reportFloatAccum(pass *analysis.Pass, pkg *analysis.Package, body *ast.BlockStmt, why string) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			return false
		case *ast.AssignStmt:
			if id := floatAccumTarget(pkg, n); id != nil {
				pass.Reportf(n.Pos(), nil,
					"float accumulation into %s under unordered iteration (%s); (a+b)+c != a+(b+c) in float64 — accumulate per key/worker and fold in sorted order",
					id.Name, why)
			}
		}
		return true
	})
}

// reportCapturedFloatAccum flags float accumulation inside a goroutine body
// when the target is declared outside the function literal — a shared
// partial-sum merged in scheduler order.
func reportCapturedFloatAccum(pass *analysis.Pass, pkg *analysis.Package, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		id := floatAccumTarget(pkg, assign)
		if id == nil {
			return true
		}
		obj := pkg.Info.Uses[id]
		if obj == nil || (obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End()) {
			return true // declared inside the goroutine: private accumulator
		}
		pass.Reportf(assign.Pos(), nil,
			"float accumulation into captured %s inside a goroutine; partial sums merge in scheduler order — give each worker its own slot and fold deterministically",
			id.Name)
		return true
	})
}
