package checks

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"slices"
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
//   - methods whose receiver type (or a pointer to it) implements an
//     interface declared in the load set that declares the method, and
//     methods named like one the standard library calls implicitly (String,
//     Error, sort.Interface, heap.Interface, types.Importer, ...).
//
// The same pass reports every struct field that no non-test code reads
// (unreadFields has the rules).
//
// Tests are not roots or readers (Load reads no _test.go file): non-test
// code or state that only tests reach is a capability no program uses. Keep
// it with //pagoda:allow unused <reason>, naming the test that reads it, or
// move it into a _test.go file.
var Unused = &analysis.Analyzer{
	Name: "unused",
	Run:  runUnused,
}

// implicitMethods are the method names the standard library calls through
// interfaces the load set does not declare.
var implicitMethods = []string{"String", "Error", "Unwrap", "Format", "MarshalJSON", "Len", "Less", "Swap", "Push", "Pop", "Import"}

func runUnused(pass *analysis.Pass) {
	g := analysis.BuildCallGraph(pass.Pkgs)

	imported := map[string]bool{}
	// ifaces lists the load-set interfaces that declare each method name.
	ifaces := map[string][]*types.Interface{}
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
						name := it.Method(i).Name()
						ifaces[name] = append(ifaces[name], it)
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

	// rootAPI reports whether a package's exported API is a root.
	rootAPI := func(p *analysis.Package) bool {
		return p.RelPath == "" || p.Types.Name() != "main" && !imported[p.Path]
	}
	// implements reports whether a method's receiver type, or a pointer to
	// it, implements a load-set interface that declares the method. The
	// pointer's method set holds the value's, so one check covers both.
	implements := func(d *analysis.FuncDeclInfo) bool {
		recv := d.Pkg.Info.Defs[d.Decl.Name].Type().(*types.Signature).Recv().Type()
		if _, ok := recv.(*types.Pointer); !ok {
			recv = types.NewPointer(recv)
		}
		for _, it := range ifaces[d.Decl.Name.Name] {
			if types.Implements(recv, it) {
				return true
			}
		}
		return false
	}
	reached := map[analysis.FuncID]bool{}
	for _, id := range g.Order {
		d := g.Decls[id]
		name, rel := d.Decl.Name.Name, d.Pkg.RelPath
		switch {
		case d.Decl.Recv == nil && (name == "main" || name == "init"),
			d.Decl.Recv != nil && (slices.Contains(implicitMethods, name) || implements(d)),
			rel == "bench" || strings.HasPrefix(rel, "bench/"),
			ast.IsExported(name) && rootAPI(d.Pkg):
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
	unreadFields(pass, rootAPI)
}

// unreadFields reports, at its name, every non-embedded field of a named
// struct type that no non-test code (bench/ included) reads. Any use,
// matched through Var.Origin so a generic type's instantiations count, is a
// read except the whole left side of an assignment (=, op=) or inc/dec and a
// composite-literal key. A json tag, a struct used as a map key or compared
// with == or != (which reads every field, nested ones too), and an exported
// field of an exported type in a package rootAPI admits count as reads.
func unreadFields(pass *analysis.Pass, rootAPI func(*analysis.Package) bool) {
	read := map[*types.Var]bool{}
	var readAll func(t types.Type) // ends: a struct cannot contain itself by value
	readAll = func(t types.Type) {
		if st, ok := t.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				read[st.Field(i).Origin()] = true
				readAll(st.Field(i).Type())
			}
		}
	}
	for _, pkg := range pass.Pkgs {
		written := map[*ast.Ident]bool{}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var lhs []ast.Expr
				switch n := n.(type) {
				case *ast.AssignStmt:
					lhs = n.Lhs
				case *ast.IncDecStmt:
					lhs = []ast.Expr{n.X}
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						written[id] = true // a field key; other idents are not fields
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						readAll(pkg.TypeOf(n.X))
					}
				}
				for _, e := range lhs {
					if sel, ok := writtenField(pkg, e); ok {
						written[sel.Sel] = true
					}
				}
				return true
			})
		}
		for id, obj := range pkg.Info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !written[id] {
				read[v.Origin()] = true
			}
		}
		for _, tv := range pkg.Info.Types {
			if m, ok := tv.Type.(*types.Map); ok {
				readAll(m.Key())
			}
		}
	}

	for _, pkg := range pass.Pkgs {
		for _, obj := range pkg.Info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			exported := rootAPI(pkg) && tn.Exported() && tn.Parent() == pkg.Types.Scope()
			for i := 0; i < st.NumFields(); i++ {
				v := st.Field(i)
				_, json := reflect.StructTag(st.Tag(i)).Lookup("json")
				if read[v] || v.Embedded() || v.Name() == "_" || json || exported && v.Exported() {
					continue
				}
				pass.Reportf(v.Pos(), nil, "field %s.%s.%s is never read by non-test code; delete it or allow it naming the test that reads it", pkg.Path, tn.Name(), v.Name())
			}
		}
	}
}

// writtenField returns the field selector an assignment or inc/dec target
// writes: x.f itself, or x.f[i] (x.f[i][j], ...) when f is an array, whose
// elements no other holder can see. Writing through a slice or map element
// reaches storage that other values share, so it reads the field.
func writtenField(pkg *analysis.Package, e ast.Expr) (*ast.SelectorExpr, bool) {
	e = ast.Unparen(e)
	for {
		ix, ok := e.(*ast.IndexExpr)
		if !ok {
			break
		}
		if _, ok := pkg.TypeOf(ix.X).Underlying().(*types.Array); !ok {
			break
		}
		e = ast.Unparen(ix.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	return sel, ok
}
