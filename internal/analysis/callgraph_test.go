package analysis

import (
	"go/ast"
	"go/types"
	"testing"
)

// checkSnippet loads one file as the root package of a module named "snip".
func checkSnippet(t *testing.T, src string) *Package {
	t.Helper()
	pkgs, err := Load(scratchModule(t, map[string]string{"snip.go": src}), "snip", []string{"."})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs[0]
}

const cgSrc = `package snip

type T struct{}

func (t *T) M() { helper() }

func helper() int { return leaf() + leaf() }

func leaf() int { return 1 }

func viaValue() {
	f := leaf
	f() // dynamic: not an edge
}
`

func TestBuildCallGraph(t *testing.T) {
	g := BuildCallGraph([]*Package{checkSnippet(t, cgSrc)})

	for _, id := range []FuncID{"snip.T.M", "snip.helper", "snip.leaf", "snip.viaValue"} {
		if g.Decls[id] == nil {
			t.Errorf("Decls missing %q (have %v)", id, g.Order)
		}
	}
	if got := g.Callees["snip.T.M"]; len(got) != 1 || got[0] != "snip.helper" {
		t.Errorf("Callees(T.M) = %v, want [snip.helper]", got)
	}
	// helper calls leaf twice; duplicates are preserved in call order.
	if got := g.Callees["snip.helper"]; len(got) != 2 || got[0] != "snip.leaf" || got[1] != "snip.leaf" {
		t.Errorf("Callees(helper) = %v, want [snip.leaf snip.leaf]", got)
	}
	// A call through a function-typed value resolves no static callee.
	if got := g.Callees["snip.viaValue"]; len(got) != 0 {
		t.Errorf("Callees(viaValue) = %v, want none", got)
	}
}

// TestIDOfMethodCollapsesPointerReceiver pins that *T and T methods share an
// ID, and that cross-package identity is by path string, not object pointer.
func TestIDOfMethodIdentity(t *testing.T) {
	pkg := checkSnippet(t, cgSrc)
	var viaDef, viaUse FuncID
	ast.Inspect(pkg.Files[0], func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Name.Name == "M" {
				viaDef = IDOf(pkg.Info.Defs[n.Name].(*types.Func))
			}
		}
		return true
	})
	// Resolve the same method through the method set of the named type.
	obj, _, _ := types.LookupFieldOrMethod(pkg.Types.Scope().Lookup("T").Type(), true, pkg.Types, "M")
	viaUse = IDOf(obj.(*types.Func))
	if viaDef != "snip.T.M" || viaUse != "snip.T.M" {
		t.Errorf("IDOf(M) def=%q use=%q, want snip.T.M for both", viaDef, viaUse)
	}
}
