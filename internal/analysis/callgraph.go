package analysis

import (
	"go/ast"
	"go/types"
)

// This file is the interprocedural substrate for whole-module analyzers: a
// stable cross-package function identity (FuncID), static callee resolution
// (CalleeOf), and a call graph over every function declared in the load set.
//
// Load type-checks each package once and hands that package to every
// importer inside the matched set, so within it a *types.Func is one object.
// Callees outside the set do not share that identity: the standard library,
// and module packages a narrower pattern left to the source importer, are
// checked apart from the set. FuncID strings name a function the same way
// from every side, so they key cross-package maps.

// A FuncID names a function or method unambiguously across the module:
// "pkgpath.Name" for package-level functions, "pkgpath.Recv.Name" for
// methods (pointer and value receivers collapse to one ID — the analysis
// does not distinguish them).
type FuncID string

// IDOf derives the FuncID of a resolved function object, or "" for objects
// it cannot name (builtins, interface methods without a package).
func IDOf(fn *types.Func) FuncID {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	id := fn.Pkg().Path() + "."
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			id += named.Obj().Name() + "."
		}
	}
	return FuncID(id + fn.Name())
}

// CalleeOf resolves the statically known callee of a call expression using
// the package's type info: a plain identifier (local or dot-imported
// function), or a selector (package function, method on any receiver
// expression). Calls through function-typed values, method values and
// builtins resolve to nil — interprocedural checks treat those
// conservatively at the call site.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// A FuncDeclInfo is one function declaration in the load set, bundled with
// the package whose type info resolves names inside its body.
type FuncDeclInfo struct {
	ID   FuncID
	Decl *ast.FuncDecl
	Pkg  *Package
}

// A CallGraph indexes every declared-with-body function in the load set and
// the static call edges between them. Edges to functions outside the load
// set (stdlib, unloaded packages) are not stored — callers resolve those
// per call site with CalleeOf.
type CallGraph struct {
	// Decls maps each function declared in the load set to its body and
	// home package, in deterministic declaration order per package.
	Decls map[FuncID]*FuncDeclInfo
	// Order lists Decls keys in load order (package order, then file order,
	// then declaration order), so fixpoint iterations are deterministic.
	Order []FuncID
	// Callees lists, for each declared function, the IDs of declared
	// functions it statically calls (duplicates preserved, call order).
	Callees map[FuncID][]FuncID
}

// BuildCallGraph walks every package in the load set and assembles the
// module call graph.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		Decls:   map[FuncID]*FuncDeclInfo{},
		Callees: map[FuncID][]FuncID{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				id := IDOf(obj)
				if id == "" {
					continue
				}
				if _, dup := g.Decls[id]; !dup {
					g.Decls[id] = &FuncDeclInfo{ID: id, Decl: fd, Pkg: pkg}
					g.Order = append(g.Order, id)
				}
			}
		}
	}
	for _, id := range g.Order {
		d := g.Decls[id]
		ast.Inspect(d.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := IDOf(CalleeOf(d.Pkg.Info, call))
			if callee == "" {
				return true
			}
			if _, declared := g.Decls[callee]; declared {
				g.Callees[id] = append(g.Callees[id], callee)
			}
			return true
		})
	}
	return g
}
