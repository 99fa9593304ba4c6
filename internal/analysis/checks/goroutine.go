package checks

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Goroutine flags fire-and-forget goroutines: a go statement whose enclosing
// function never joins a sync.WaitGroup. Rawgo already bans goroutines from
// simulation code outside internal/sim; this check covers the rest of the
// tree (harness, cmd, analysis), where worker pools ARE allowed — but only
// the joined kind. A pool that WaitGroup-joins before returning (the harness
// cell scheduler, a future cluster sweep pool) passes naturally; a goroutine
// nobody waits for outlives its function, keeps running across test
// boundaries, and turns deterministic drivers into racy ones. Joins that
// happen in a caller need an explicit //pagoda:allow goroutine <reason>.
var Goroutine = &analysis.Analyzer{
	Name: "goroutine",
	AppliesTo: func(relPath string) bool {
		return relPath != "internal/sim" && !strings.HasPrefix(relPath, "internal/sim/")
	},
	Run: func(pass *analysis.Pass) {
		for _, pkg := range pass.Pkgs {
			for _, f := range pkg.Files {
				var stack []ast.Node
				ast.Inspect(f, func(n ast.Node) bool {
					if n == nil {
						stack = stack[:len(stack)-1]
						return true
					}
					stack = append(stack, n)
					g, ok := n.(*ast.GoStmt)
					if !ok {
						return true
					}
					if fn := enclosingFunc(stack[:len(stack)-1]); fn == nil || !joinsWaitGroup(pkg, fn) {
						pass.Reportf(g.Pos(), nil,
							"goroutine is never joined in this function; pool spawns must sync.WaitGroup.Wait before returning (or justify with //pagoda:allow goroutine)")
					}
					return true
				})
			}
		}
	},
}

// enclosingFunc returns the innermost FuncDecl or FuncLit body on the node
// path, or nil for a go statement outside any function.
func enclosingFunc(path []ast.Node) *ast.BlockStmt {
	for i := len(path) - 1; i >= 0; i-- {
		switch fn := path[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// joinsWaitGroup reports whether body contains a call to Wait on a
// sync.WaitGroup (by value or pointer), anywhere in its subtree.
func joinsWaitGroup(pkg *analysis.Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Wait" {
			return true
		}
		if isWaitGroup(pkg.TypeOf(sel.X)) {
			found = true
			return false
		}
		return true
	})
	return found
}

func isWaitGroup(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
