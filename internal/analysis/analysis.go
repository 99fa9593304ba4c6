// Package analysis is a tiny stdlib-only static-analysis framework for the
// repository's determinism rules. It mirrors the shape of
// golang.org/x/tools/go/analysis — Analyzer + Pass + reported findings — but
// depends only on go/ast, go/token and go/types so the module stays
// dependency-free and buildable offline.
//
// Findings can be suppressed line-by-line with
//
//	//pagoda:allow <check> <reason>
//
// placed either at the end of the offending line or on a comment line
// directly above it. The reason is mandatory: every intentional exception to
// a determinism rule must say why it is safe.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// A Finding is one rule violation at a source position.
type Finding struct {
	Pos   token.Position
	Check string // analyzer name, printed as [check]
	Msg   string
	// Path, when non-nil, is the interprocedural chain that produced the
	// finding (source → call hops → sink), one human-readable step per
	// element. Per-file checks leave it nil.
	Path []string
}

// String formats the finding the way cmd/pagodavet prints it. An
// interprocedural path is appended inline so one grep-able line carries the
// whole source→sink chain.
func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Check, f.Msg)
	if len(f.Path) > 0 {
		s += " [" + strings.Join(f.Path, " -> ") + "]"
	}
	return s
}

// An Analyzer is one named check. Per-package analyzers set Run and are
// invoked once per loaded package; whole-module analyzers set RunModule and
// are invoked once over the entire load set, which is what lets them follow
// dataflow across package boundaries. Exactly one of Run/RunModule is set.
type Analyzer struct {
	Name string
	Doc  string
	// AppliesTo reports whether the check runs on the package with the given
	// module-relative import path ("internal/sim", "cmd/gpuinfo", "" for the
	// module root). Fixture tests bypass this and call Run directly. Module
	// analyzers leave it nil and scope themselves internally.
	AppliesTo func(relPath string) bool
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Src      map[string][]byte // filename -> source, for suppression placement
	Pkg      *types.Package
	Info     *types.Info
	RelPath  string // module-relative import path

	findings []Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Pos:   p.Fset.Position(pos),
		Check: p.Analyzer.Name,
		Msg:   fmt.Sprintf(format, args...),
	})
}

// Findings returns everything reported so far, suppressions not yet applied.
func (p *Pass) Findings() []Finding { return p.findings }

// A ModulePass carries every loaded package through one whole-module
// analyzer. Module analyzers see the full load set at once, so they can
// resolve call edges that cross package boundaries.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package

	findings []Finding
}

// NewModulePass binds a module analyzer to the full load set. All packages
// share one FileSet (Load guarantees this).
func NewModulePass(a *Analyzer, pkgs []*Package) *ModulePass {
	var fset *token.FileSet
	if len(pkgs) > 0 {
		fset = pkgs[0].Fset
	}
	return &ModulePass{Analyzer: a, Fset: fset, Pkgs: pkgs}
}

// ReportPath records a finding at pos carrying the source→sink chain that
// produced it.
func (p *ModulePass) ReportPath(pos token.Pos, path []string, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Pos:   p.Fset.Position(pos),
		Check: p.Analyzer.Name,
		Msg:   fmt.Sprintf(format, args...),
		Path:  path,
	})
}

// Findings returns everything reported so far, suppressions not yet applied.
func (p *ModulePass) Findings() []Finding { return p.findings }

// allowPrefix introduces a suppression comment. The directive form (no space
// after //) matches Go convention for machine-readable comments.
const allowPrefix = "pagoda:allow"

// A Suppression is one parsed //pagoda:allow directive.
type Suppression struct {
	File   string
	Line   int // line the directive covers (its own, or the next for a standalone comment)
	Check  string
	Reason string
	Pos    token.Position // where the directive itself sits, for stale reporting
}

// Key identifies the finding coordinates a suppression covers.
func (s Suppression) Key() SupKey { return SupKey{s.File, s.Line, s.Check} }

// A SupKey is the (file, line, check) coordinate a suppression binds to.
type SupKey struct {
	File  string
	Line  int
	Check string
}

// parseSuppressions extracts every //pagoda:allow directive from a file. A
// directive with code before it on its line covers that line; a standalone
// comment covers the line below it. Malformed directives (missing check or
// reason) are reported as findings under the "pagoda" pseudo-check so they
// fail the build instead of silently suppressing nothing.
func parseSuppressions(fset *token.FileSet, f *ast.File, src []byte, report func(Finding)) []Suppression {
	var out []Suppression
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, allowPrefix) {
				continue
			}
			pos := fset.Position(c.Slash)
			rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
			check, reason, _ := strings.Cut(rest, " ")
			reason = strings.TrimSpace(reason)
			if check == "" || reason == "" {
				report(Finding{Pos: pos, Check: "pagoda",
					Msg: "malformed suppression: want //pagoda:allow <check> <reason>"})
				continue
			}
			line := pos.Line
			if standaloneComment(src, pos) {
				line++ // whole-line comment suppresses the line below
			}
			out = append(out, Suppression{File: pos.Filename, Line: line, Check: check, Reason: reason, Pos: pos})
		}
	}
	return out
}

// PackageSuppressions parses every //pagoda:allow directive in pkg once,
// returning the well-formed directives and the malformed ones as "pagoda"
// findings. Drivers call this once per package (not once per analyzer) so a
// malformed directive is reported exactly once.
func PackageSuppressions(pkg *Package) (sups []Suppression, malformed []Finding) {
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		sups = append(sups, parseSuppressions(pkg.Fset, f, pkg.Src[name], func(f Finding) {
			malformed = append(malformed, f)
		})...)
	}
	return sups, malformed
}

// Partition splits findings into kept and suppressed according to sups,
// recording every suppression that actually fired in used (keyed by
// Suppression.Key). Drivers thread one used map through every partition so
// stale directives — suppressions that fired for no analyzer — can be
// reported afterwards via StaleFindings.
func Partition(findings []Finding, sups []Suppression, used map[SupKey]bool) (kept, suppressed []Finding) {
	allowed := map[SupKey]bool{}
	for _, s := range sups {
		allowed[s.Key()] = true
	}
	for _, f := range findings {
		k := SupKey{f.Pos.Filename, f.Pos.Line, f.Check}
		if allowed[k] {
			suppressed = append(suppressed, f)
			if used != nil {
				used[k] = true
			}
		} else {
			kept = append(kept, f)
		}
	}
	return kept, suppressed
}

// StaleFindings reports every suppression that fired for no finding as a
// finding of its own, under the "suppression" pseudo-check. A //pagoda:allow
// that suppresses nothing is rot: either the offending code moved (so the
// directive now covers the wrong line) or the exception no longer exists (so
// the annotation is dead weight that would silently swallow a future real
// finding on that line). Stale findings are not themselves suppressible.
func StaleFindings(sups []Suppression, used map[SupKey]bool) []Finding {
	var out []Finding
	for _, s := range sups {
		if used[s.Key()] {
			continue
		}
		// The position prefix already names the directive's file; repeat only
		// the base name for the covered line (which differs for a standalone
		// comment: the line below the directive).
		out = append(out, Finding{Pos: s.Pos, Check: "suppression",
			Msg: fmt.Sprintf("stale //pagoda:allow %s: no %s finding on %s:%d; remove the directive or move it back onto the offending line",
				s.Check, s.Check, filepath.Base(s.File), s.Line)})
	}
	return out
}

// standaloneComment reports whether only whitespace precedes the comment on
// its line, i.e. it is not a trailing comment after code.
func standaloneComment(src []byte, pos token.Position) bool {
	if src == nil {
		return false
	}
	for i := pos.Offset - pos.Column + 1; i < pos.Offset && i < len(src); i++ {
		if src[i] != ' ' && src[i] != '\t' {
			return false
		}
	}
	return true
}

// ApplySuppressions partitions findings into kept and suppressed according to
// the //pagoda:allow directives in the pass's files. Malformed directives are
// appended to kept as "pagoda" findings. This is the single-pass convenience
// used by fixture tests; cmd/pagodavet parses suppressions once per package
// with PackageSuppressions and partitions with Partition so it can also
// report stale directives.
func ApplySuppressions(p *Pass, findings []Finding) (kept, suppressed []Finding) {
	var sups []Suppression
	for _, f := range p.Files {
		name := p.Fset.Position(f.Pos()).Filename
		sups = append(sups, parseSuppressions(p.Fset, f, p.Src[name], func(f Finding) {
			kept = append(kept, f)
		})...)
	}
	k, suppressed := Partition(findings, sups, nil)
	kept = append(kept, k...)
	return kept, suppressed
}

// TypeOf is a nil-tolerant shorthand for Pass.Info.TypeOf.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// UsedPackage resolves an identifier to the package it names (via an import),
// or nil if it does not name one. Used to detect selector expressions like
// time.Now without being fooled by local variables named "time".
func (p *Pass) UsedPackage(id *ast.Ident) *types.Package {
	if p.Info == nil {
		return nil
	}
	if pn, ok := p.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported()
	}
	return nil
}
