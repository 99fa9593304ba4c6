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
	"path/filepath"
	"sort"
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

// An Analyzer is one named check. Check runs it once over every loaded
// package that AppliesTo admits, which lets an interprocedural check follow
// dataflow across package boundaries and a per-file check simply loop over
// the packages.
type Analyzer struct {
	Name string
	// AppliesTo reports whether the check covers the package with the given
	// module-relative import path ("internal/sim", "cmd/gpuinfo", "" for the
	// module root). Nil admits every package; fixture tests clear it.
	AppliesTo func(relPath string) bool
	Run       func(*Pass)
}

// A Pass carries the admitted packages through one analyzer. All packages
// share one FileSet (Load guarantees this).
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package

	findings []Finding
}

// Reportf records a finding at pos. path, when non-nil, is the
// interprocedural chain that produced it; per-file checks pass nil.
func (p *Pass) Reportf(pos token.Pos, path []string, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Pos:   p.Fset.Position(pos),
		Check: p.Analyzer.Name,
		Msg:   fmt.Sprintf(format, args...),
		Path:  path,
	})
}

// Check runs every analyzer once over pkgs and applies the //pagoda:allow
// directives: it parses them once per package (a malformed one is a kept
// "pagoda" finding), drops repeated findings (an interprocedural analyzer can
// rediscover one flow through two summary routes), partitions the rest into
// kept and suppressed, and appends every directive that suppressed nothing as
// a kept "suppression" finding. Both lists come back sorted by file, line,
// check and message.
func Check(pkgs []*Package, analyzers []*Analyzer) (kept, suppressed []Finding) {
	var sups []suppression
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			sups = append(sups, parseSuppressions(pkg.Fset, f, pkg.Src[name], func(f Finding) {
				kept = append(kept, f)
			})...)
		}
	}
	var found []Finding
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a}
		for _, pkg := range pkgs {
			if a.AppliesTo == nil || a.AppliesTo(pkg.RelPath) {
				pass.Fset = pkg.Fset
				pass.Pkgs = append(pass.Pkgs, pkg)
			}
		}
		a.Run(pass)
		found = append(found, pass.findings...)
	}

	allowed := map[supKey]bool{}
	for _, s := range sups {
		allowed[s.supKey] = true
	}
	type dupKey struct {
		supKey
		msg string
	}
	used := map[supKey]bool{}
	seen := map[dupKey]bool{}
	for _, f := range found {
		k := supKey{f.Pos.Filename, f.Pos.Line, f.Check}
		if seen[dupKey{k, f.Msg}] {
			continue
		}
		seen[dupKey{k, f.Msg}] = true
		if allowed[k] {
			suppressed = append(suppressed, f)
			used[k] = true
		} else {
			kept = append(kept, f)
		}
	}
	kept = append(kept, staleFindings(sups, used)...)
	sortFindings(kept)
	sortFindings(suppressed)
	return kept, suppressed
}

func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Msg < b.Msg
	})
}

// allowPrefix introduces a suppression comment. The directive form (no space
// after //) matches Go convention for machine-readable comments.
const allowPrefix = "pagoda:allow"

// A suppression is one parsed //pagoda:allow directive.
type suppression struct {
	supKey                // the coordinates it covers: its own line, or the next for a standalone comment
	pos    token.Position // where the directive itself sits, for stale reporting
}

// A supKey is the (file, line, check) coordinate a suppression binds to.
type supKey struct {
	file  string
	line  int
	check string
}

// parseSuppressions extracts every //pagoda:allow directive from a file. A
// directive with code before it on its line covers that line; a standalone
// comment covers the line below it. Malformed directives (missing check or
// reason) are reported as findings under the "pagoda" pseudo-check so they
// fail the build instead of silently suppressing nothing.
func parseSuppressions(fset *token.FileSet, f *ast.File, src []byte, report func(Finding)) []suppression {
	var out []suppression
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
			if check == "" || strings.TrimSpace(reason) == "" {
				report(Finding{Pos: pos, Check: "pagoda",
					Msg: "malformed suppression: want //pagoda:allow <check> <reason>"})
				continue
			}
			line := pos.Line
			if standaloneComment(src, pos) {
				line++ // whole-line comment suppresses the line below
			}
			out = append(out, suppression{supKey{pos.Filename, line, check}, pos})
		}
	}
	return out
}

// staleFindings reports every suppression that fired for no finding as a
// finding of its own, under the "suppression" pseudo-check. A //pagoda:allow
// that suppresses nothing is rot: either the offending code moved (so the
// directive now covers the wrong line) or the exception no longer exists (so
// the annotation is dead weight that would silently swallow a future real
// finding on that line). Stale findings are not themselves suppressible.
func staleFindings(sups []suppression, used map[supKey]bool) []Finding {
	var out []Finding
	for _, s := range sups {
		if used[s.supKey] {
			continue
		}
		// The position prefix already names the directive's file; repeat only
		// the base name for the covered line (which differs for a standalone
		// comment: the line below the directive).
		out = append(out, Finding{Pos: s.pos, Check: "suppression",
			Msg: fmt.Sprintf("stale //pagoda:allow %s: no %s finding on %s:%d; remove the directive or move it back onto the offending line",
				s.check, s.check, filepath.Base(s.file), s.line)})
	}
	return out
}

// standaloneComment reports whether only whitespace precedes the comment on
// its line, i.e. it is not a trailing comment after code.
func standaloneComment(src []byte, pos token.Position) bool {
	for i := pos.Offset - pos.Column + 1; i < pos.Offset && i < len(src); i++ {
		if src[i] != ' ' && src[i] != '\t' {
			return false
		}
	}
	return true
}
