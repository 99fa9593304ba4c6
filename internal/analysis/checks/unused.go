package checks

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Unused reports every function and method, declared with a body in a
// non-test file, that no program can reach. An edge is any use of a
// function by name in a body (a call, a method value, a table entry), so
// function values count as well as static calls. The roots are:
//   - main and init in every loaded package;
//   - the exported API of the module's root package (the pagoda facade);
//   - every function of the bench/ module, whose programs ride on the
//     module's API from outside it;
//   - the exported API of any loaded non-main package that no other loaded
//     package imports (test-support packages such as internal/golden);
//   - functions named in package-level var initializers;
//   - methods named like a method of an interface declared in the load set,
//     or like one the standard library calls implicitly (String, Error,
//     sort.Interface, heap.Interface, types.Importer, ...).
//
// Tests are not roots (Load reads no _test.go file): non-test code that only
// tests reach is a capability no program uses. Keep it with
// //pagoda:allow unused <reason> or move it into a _test.go file.
var Unused = &analysis.Analyzer{
	Name: "unused",
	Doc:  "report functions and methods that no main, init, root-package API, bench/ program or un-imported package can reach",
	Run:  runUnused,
}

// implicitMethods are the method names the standard library calls through
// interfaces the load set does not declare.
var implicitMethods = []string{"String", "Error", "Unwrap", "Format", "MarshalJSON", "Len", "Less", "Swap", "Push", "Pop", "Import"}

func runUnused(pass *analysis.Pass) {
	g := analysis.BuildCallGraph(pass.Pkgs)

	imported := map[string]bool{}
	ifaceMethod := map[string]bool{}
	for _, m := range implicitMethods {
		ifaceMethod[m] = true
	}
	var work []analysis.FuncID // the roots, then everything they reach
	uses := func(info *types.Info, n ast.Node) (out []analysis.FuncID) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := info.Uses[id].(*types.Func); ok {
					out = append(out, analysis.IDOf(fn))
				}
			}
			return true
		})
		return out
	}
	for _, pkg := range pass.Pkgs {
		for _, imp := range pkg.Types.Imports() {
			imported[imp.Path()] = true
		}
		for _, obj := range pkg.Info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumMethods(); i++ {
						ifaceMethod[it.Method(i).Name()] = true
					}
				}
			}
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					work = append(work, uses(pkg.Info, gd)...)
				}
			}
		}
	}

	reached := map[analysis.FuncID]bool{}
	for _, id := range g.Order {
		d := g.Decls[id]
		name, rel := d.Decl.Name.Name, d.Pkg.RelPath
		switch {
		case d.Decl.Recv == nil && (name == "main" || name == "init"),
			d.Decl.Recv != nil && ifaceMethod[name],
			rel == "bench" || strings.HasPrefix(rel, "bench/"),
			ast.IsExported(name) && (rel == "" || d.Pkg.Types.Name() != "main" && !imported[d.Pkg.Path]):
			work = append(work, id)
		}
	}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		d := g.Decls[id]
		if d == nil || reached[id] {
			continue
		}
		reached[id] = true
		work = append(work, uses(d.Pkg.Info, d.Decl.Body)...)
	}
	for _, id := range g.Order {
		if !reached[id] {
			pass.Reportf(g.Decls[id].Decl.Name.Pos(), nil, "%s is reachable from no main, init, root-package API, bench/ program or un-imported package; delete it or keep it as test support", id)
		}
	}
}
