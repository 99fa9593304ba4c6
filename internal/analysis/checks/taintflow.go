package checks

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// Taintflow is the whole-module interprocedural determinism check. The
// per-file analyzers (wallclock, randsource, maprange) catch a source used
// at the point it is read; they are blind to a nondeterministic value that
// is produced in one function — or one package — and handed through any
// number of calls before it re-keys the event heap. Taintflow closes that
// gap: it builds the module call graph, summarizes every function
// (does it return tainted data? which parameters flow to a sim-time sink?),
// propagates the summaries to a fixpoint, and reports each place a tainted
// expression meets a sink argument, with the full source→hop→sink chain in
// the diagnostic.
//
// Sources (inherently nondeterministic values):
//   - time.Now / time.Since / time.Until (wall clock)
//   - package-level math/rand and math/rand/v2 calls (auto-seeded global
//     RNG; methods on an explicitly seeded *rand.Rand are not sources)
//   - anything in crypto/rand
//   - os.Getenv / os.LookupEnv / os.Environ (host environment)
//   - fmt verbs formatting pointer identity (a literal format containing %p)
//   - the key/value of a range over a map (iteration order randomized)
//   - the callback arguments of sync.Map.Range (same)
//
// Sinks (where a value starts steering simulated time, and therefore every
// published number derived from it): the delay/deadline arguments of
// sim.Engine.Schedule/ScheduleAt, sim.Timer.Reset/ResetAt/ResetForward and
// sim.Proc.Sleep/WakeAfter. Every golden virtual time, latency percentile
// and capacity headline is a pure function of the times entering the event
// heap, so these entry points are the chokepoint for "feeds published
// output". Matching is by package base name ("sim"), receiver and method,
// so fixture mini-sims exercise the same table the real engine binds to.
//
// Command-line flags deliberately are NOT sources: determinism means "same
// inputs, same bits", and flags are inputs. The environment is treated as a
// source because nothing records it alongside the artifacts.
var Taintflow = &analysis.Analyzer{
	Name: "taintflow",
	Run: func(pass *analysis.Pass) {
		st := &tfState{
			graph: analysis.BuildCallGraph(pass.Pkgs),
			sums:  map[analysis.FuncID]*tfSummary{},
		}
		for _, id := range st.graph.Order {
			st.sums[id] = &tfSummary{paramToReturn: map[int]bool{}, sinkParams: map[int][]string{}}
		}
		// Propagate summaries to a fixpoint. Every quantity is monotone and
		// bounded (one return path per function, at most nparams entries in
		// each param map), so this terminates; the round cap is a guard
		// against bugs, not a correctness device.
		for round := 0; round < 64; round++ {
			changed := false
			for _, id := range st.graph.Order {
				if st.analyzeFunc(st.graph.Decls[id], nil) {
					changed = true
				}
			}
			if !changed {
				break
			}
		}
		// Reporting pass over stable summaries.
		for _, id := range st.graph.Order {
			st.analyzeFunc(st.graph.Decls[id], pass)
		}
	},
}

// A tfSummary is what one function exposes to its callers.
type tfSummary struct {
	returnPath    []string         // non-nil: some return value is intrinsically tainted; the chain says why
	paramToReturn map[int]bool     // parameter indices that can flow to a return value
	sinkParams    map[int][]string // parameter index -> continuation chain down to a base sink
}

type tfState struct {
	graph *analysis.CallGraph
	sums  map[analysis.FuncID]*tfSummary
}

// A taint describes how an expression's value may be nondeterministic:
// intrinsically (path traces back to a source) and/or derived from the
// enclosing function's parameters (params holds their indices).
type taint struct {
	path   []string
	params map[int]bool
}

func (t taint) empty() bool { return t.path == nil && len(t.params) == 0 }

func mergeTaint(a, b taint) taint {
	out := taint{path: a.path}
	if out.path == nil {
		out.path = b.path
	}
	if len(a.params)+len(b.params) > 0 {
		out.params = map[int]bool{}
		for p := range a.params {
			out.params[p] = true
		}
		for p := range b.params {
			out.params[p] = true
		}
	}
	return out
}

// hop appends a call-chain step to an intrinsic taint path.
func hop(t taint, step string) taint {
	if t.path == nil {
		return t
	}
	out := taint{params: t.params}
	out.path = append(append([]string{}, t.path...), step)
	return out
}

// baseSinks are the sim-time entry points, matched against methods of a
// package whose import path ends in "sim" (the real repro/internal/sim and
// fixture mini-sims alike).
var baseSinks = []struct {
	recv, name string
	arg        int
	desc       string
}{
	{"Engine", "Schedule", 0, "sim.Engine.Schedule delay"},
	{"Engine", "ScheduleAt", 0, "sim.Engine.ScheduleAt deadline"},
	{"Engine", "RunUntil", 0, "sim.Engine.RunUntil deadline"},
	{"Timer", "Reset", 0, "sim.Timer.Reset delay"},
	{"Timer", "ResetAt", 0, "sim.Timer.ResetAt deadline"},
	{"Timer", "ResetForward", 0, "sim.Timer.ResetForward delay"},
	{"Proc", "Sleep", 0, "sim.Proc.Sleep duration"},
	{"Proc", "WakeAfter", 0, "sim.Proc.WakeAfter delay"},
}

// baseSinkOf matches a resolved callee against the sink table.
func baseSinkOf(fn *types.Func) (arg int, desc string, ok bool) {
	if fn == nil || fn.Pkg() == nil || path.Base(fn.Pkg().Path()) != "sim" {
		return 0, "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return 0, "", false
	}
	rt := sig.Recv().Type()
	if p, isPtr := rt.(*types.Pointer); isPtr {
		rt = p.Elem()
	}
	named, isNamed := rt.(*types.Named)
	if !isNamed {
		return 0, "", false
	}
	for _, s := range baseSinks {
		if named.Obj().Name() == s.recv && fn.Name() == s.name {
			return s.arg, s.desc, true
		}
	}
	return 0, "", false
}

// shortID compresses "repro/internal/sim.Engine.Schedule" to
// "sim.Engine.Schedule" for path steps.
func shortID(id analysis.FuncID) string {
	s := string(id)
	if i := strings.LastIndex(s, "/"); i >= 0 {
		s = s[i+1:]
	}
	return s
}

// analyzeFunc runs the intra-procedural dataflow for one declared function.
// With pass == nil it only grows the function's summary and reports whether
// it changed; with pass set it re-evaluates against the (now stable) summaries
// and emits findings where taint meets a sink argument.
func (st *tfState) analyzeFunc(d *analysis.FuncDeclInfo, pass *analysis.Pass) bool {
	sum := st.sums[d.ID]
	info := d.Pkg.Info
	fset := d.Pkg.Fset

	at := func(pos token.Pos) string {
		p := fset.Position(pos)
		return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
	}

	paramIdx := map[types.Object]int{}
	i := 0
	for _, field := range d.Decl.Type.Params.List {
		if len(field.Names) == 0 {
			i++
			continue
		}
		for _, name := range field.Names {
			if o := info.Defs[name]; o != nil {
				paramIdx[o] = i
			}
			i++
		}
	}

	locals := map[types.Object]taint{}
	changed := false
	localChanged := true
	reporting := false // true only on the final walk, so findings aren't duplicated per pass

	objectOf := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if o := info.Defs[id]; o != nil {
			return o
		}
		return info.Uses[id]
	}

	mergeLocal := func(obj types.Object, t taint) {
		if obj == nil || t.empty() {
			return
		}
		old := locals[obj]
		merged := mergeTaint(old, t)
		if merged.path != nil && old.path == nil || len(merged.params) != len(old.params) {
			locals[obj] = merged
			localChanged = true
		}
	}

	var eval func(e ast.Expr) taint
	eval = func(e ast.Expr) taint {
		switch e := e.(type) {
		case *ast.Ident:
			var out taint
			o := objectOf(e)
			if t, ok := locals[o]; ok {
				out = mergeTaint(out, t)
			}
			if p, ok := paramIdx[o]; ok {
				out = mergeTaint(out, taint{params: map[int]bool{p: true}})
			}
			return out
		case *ast.CallExpr:
			return st.evalCall(d, e, info, eval, at)
		case *ast.ParenExpr:
			return eval(e.X)
		case *ast.UnaryExpr:
			return eval(e.X)
		case *ast.StarExpr:
			return eval(e.X)
		case *ast.BinaryExpr:
			return mergeTaint(eval(e.X), eval(e.Y))
		case *ast.SelectorExpr:
			// Field read off a tainted value (or qualified name: the package
			// ident evaluates clean).
			return eval(e.X)
		case *ast.IndexExpr:
			return mergeTaint(eval(e.X), eval(e.Index))
		case *ast.SliceExpr:
			return eval(e.X)
		case *ast.TypeAssertExpr:
			return eval(e.X)
		case *ast.KeyValueExpr:
			return mergeTaint(eval(e.Key), eval(e.Value))
		case *ast.CompositeLit:
			var out taint
			for _, el := range e.Elts {
				out = mergeTaint(out, eval(el))
			}
			return out
		}
		return taint{}
	}

	// assign taints the written-to object: plain idents directly, and for
	// writes through a field/index/deref, the base container object (a
	// struct holding one tainted field is a tainted value).
	assign := func(lhs ast.Expr, t taint) {
		for {
			switch l := ast.Unparen(lhs).(type) {
			case *ast.SelectorExpr:
				lhs = l.X
				continue
			case *ast.IndexExpr:
				lhs = l.X
				continue
			case *ast.StarExpr:
				lhs = l.X
				continue
			}
			break
		}
		mergeLocal(objectOf(lhs), t)
	}

	handleCallSinks := func(call *ast.CallExpr) {
		callee := analysis.CalleeOf(info, call)
		if callee == nil {
			return
		}
		// sinkArgs: argument index -> continuation chain from that argument
		// down to a base sink.
		sinkArgs := map[int][]string{}
		if arg, desc, ok := baseSinkOf(callee); ok {
			sinkArgs[arg] = []string{fmt.Sprintf("sink %s (%s)", desc, at(call.Pos()))}
		} else if cs := st.sums[analysis.IDOf(callee)]; cs != nil {
			for p, cont := range cs.sinkParams {
				step := fmt.Sprintf("passed to %s (%s)", shortID(analysis.IDOf(callee)), at(call.Pos()))
				sinkArgs[p] = append([]string{step}, cont...)
			}
		}
		for argI, cont := range sinkArgs {
			if argI >= len(call.Args) {
				continue
			}
			t := eval(call.Args[argI])
			if t.path != nil && reporting {
				full := append(append([]string{}, t.path...), cont...)
				pass.Reportf(call.Args[argI].Pos(), full,
					"nondeterministic value reaches a sim-time sink: %s -> %s",
					t.path[0], full[len(full)-1])
			}
			for p := range t.params {
				if sum.sinkParams[p] == nil {
					step := fmt.Sprintf("via param %d of %s", p, shortID(d.ID))
					sum.sinkParams[p] = append([]string{step}, cont...)
					changed = true
				}
			}
		}
	}

	walk := func() {
		ast.Inspect(d.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
					t := eval(n.Rhs[0])
					for _, lhs := range n.Lhs {
						assign(lhs, t)
					}
					break
				}
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) {
						break
					}
					assign(lhs, eval(n.Rhs[i]))
				}
			case *ast.ValueSpec:
				if len(n.Values) == 1 && len(n.Names) > 1 {
					t := eval(n.Values[0])
					for _, name := range n.Names {
						mergeLocal(info.Defs[name], t)
					}
					break
				}
				for i, name := range n.Names {
					if i >= len(n.Values) {
						break
					}
					mergeLocal(info.Defs[name], eval(n.Values[i]))
				}
			case *ast.RangeStmt:
				xt := eval(n.X)
				if t := info.TypeOf(n.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						mt := mergeTaint(xt, taint{path: []string{
							fmt.Sprintf("map iteration order (range at %s)", at(n.Pos())),
						}})
						if n.Key != nil {
							assign(n.Key, mt)
						}
						if n.Value != nil {
							assign(n.Value, mt)
						}
						break
					}
				}
				// Ordered collection: elements of a tainted slice/string/
				// channel are tainted; the index is not.
				if n.Value != nil && !xt.empty() {
					assign(n.Value, xt)
				}
			case *ast.CallExpr:
				// sync.Map.Range hands its callback key/value in randomized
				// order, exactly like a map range.
				if fn := analysis.CalleeOf(info, n); fn != nil && fn.Pkg() != nil &&
					fn.Pkg().Path() == "sync" && fn.Name() == "Range" && len(n.Args) == 1 {
					if lit, ok := ast.Unparen(n.Args[0]).(*ast.FuncLit); ok {
						mt := taint{path: []string{
							fmt.Sprintf("sync.Map iteration order (Range at %s)", at(n.Pos())),
						}}
						for _, field := range lit.Type.Params.List {
							for _, name := range field.Names {
								mergeLocal(info.Defs[name], mt)
							}
						}
					}
				}
				handleCallSinks(n)
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					t := eval(r)
					if t.path != nil && sum.returnPath == nil {
						sum.returnPath = append(append([]string{}, t.path...),
							fmt.Sprintf("returned by %s (%s)", shortID(d.ID), at(n.Pos())))
						changed = true
					}
					for p := range t.params {
						if !sum.paramToReturn[p] {
							sum.paramToReturn[p] = true
							changed = true
						}
					}
				}
			}
			return true
		})
	}

	// Intra-procedural fixpoint: loop-carried assignments (a value tainted
	// late in a loop body, read early on the next iteration) need a second
	// pass; the cap bounds pathological chains.
	for pass := 0; pass < 8 && localChanged; pass++ {
		localChanged = false
		walk()
	}
	if pass != nil {
		reporting = true
		walk()
	}
	return changed
}

// evalCall computes the taint of a call expression's result.
func (st *tfState) evalCall(d *analysis.FuncDeclInfo, call *ast.CallExpr,
	info *types.Info, eval func(ast.Expr) taint, at func(token.Pos) string) taint {

	// Type conversion: taint passes straight through.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return eval(call.Args[0])
		}
		return taint{}
	}

	if desc := sourceOf(info, call); desc != "" {
		return taint{path: []string{fmt.Sprintf("%s (%s)", desc, at(call.Pos()))}}
	}

	callee := analysis.CalleeOf(info, call)
	passThrough := func(label string) taint {
		var out taint
		for _, a := range call.Args {
			out = mergeTaint(out, eval(a))
		}
		// A method invoked on a tainted value yields tainted data
		// (r.Latency() on a tainted record).
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			out = mergeTaint(out, eval(sel.X))
		}
		return hop(out, fmt.Sprintf("through %s (%s)", label, at(call.Pos())))
	}

	if callee == nil {
		// Builtin or call through a function value. Constructors make no
		// data of their own; everything else conservatively passes taint
		// through from its arguments.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			switch id.Name {
			case "make", "new", "cap", "panic", "recover", "print", "println", "delete", "clear", "close":
				return taint{}
			}
			return passThrough(id.Name)
		}
		return passThrough("a dynamic call")
	}

	if cs := st.sums[analysis.IDOf(callee)]; cs != nil {
		// Declared in the load set: the summary is authoritative.
		var out taint
		if cs.returnPath != nil {
			out.path = append(append([]string{}, cs.returnPath...),
				fmt.Sprintf("called from %s (%s)", shortID(d.ID), at(call.Pos())))
		}
		for p := range cs.paramToReturn {
			if p < len(call.Args) {
				out = mergeTaint(out, hop(eval(call.Args[p]),
					fmt.Sprintf("through %s (%s)", shortID(analysis.IDOf(callee)), at(call.Pos()))))
			}
		}
		return out
	}
	// Known function outside the load set (stdlib): treat as a pure
	// transformer — tainted arguments taint the result.
	return passThrough(shortID(analysis.IDOf(callee)))
}

// sourceOf reports whether call is an intrinsic nondeterminism source, with
// a human-readable description, or "".
func sourceOf(info *types.Info, call *ast.CallExpr) string {
	fn := analysis.CalleeOf(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, _ := fn.Type().(*types.Signature)
	pkgPath, name := fn.Pkg().Path(), fn.Name()
	switch pkgPath {
	case "time":
		switch name {
		case "Now", "Since", "Until":
			return "time." + name + " (wall clock)"
		}
	case "math/rand", "math/rand/v2":
		// Package-level functions draw from the auto-seeded global source;
		// methods on an explicitly seeded *rand.Rand are deterministic.
		if sig != nil && sig.Recv() == nil {
			return pkgPath + "." + name + " (auto-seeded global RNG)"
		}
	case "crypto/rand":
		return "crypto/rand." + name + " (nondeterministic RNG)"
	case "os":
		switch name {
		case "Getenv", "LookupEnv", "Environ":
			return "os." + name + " (host environment)"
		}
	case "fmt":
		if idx, ok := fmtFormatArg[name]; ok && idx < len(call.Args) {
			if tv, ok := info.Types[call.Args[idx]]; ok && tv.Value != nil &&
				strings.Contains(tv.Value.String(), "%p") {
				return "fmt." + name + " %p (pointer identity)"
			}
		}
	}
	return ""
}

// fmtFormatArg maps fmt formatting functions to the index of their format
// string, for %p pointer-identity detection.
var fmtFormatArg = map[string]int{
	"Sprintf": 0, "Errorf": 0, "Appendf": 1, "Fprintf": 1, "Printf": 0,
}
