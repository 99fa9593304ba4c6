// Package analysistest runs one analyzer over a fixture directory and checks
// its findings against `// want` comments, the same convention as
// golang.org/x/tools but implemented on the standard library alone.
//
// A fixture line expecting a finding carries a trailing comment
//
//	x := time.Now() // want `time\.Now reads the wall clock`
//
// whose backquoted payload is a regexp matched against "[check] message".
// Lines without a want comment must produce no finding; in particular a line
// carrying //pagoda:allow and no want demonstrates suppression, and a
// directive that suppresses nothing needs a want for its stale finding.
//
// A fixture directory is a miniature module named "fixture": its own .go
// files form package "fixture" and each subdirectory a package importable as
// "fixture/<subdir>", so fixtures can demonstrate flows that cross package
// boundaries. _test.go files are not loaded, as pagodavet loads none.
package analysistest

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

var wantRe = regexp.MustCompile("// want `([^`]*)`")

// Run loads the fixture module in dir with analysis.Load, runs a over every
// fixture package through analysis.Check — the pipeline pagodavet runs, with
// a's AppliesTo cleared so fixture paths need not mimic the repository's —
// and diffs the kept findings against the fixture's want comments.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	pkgs, err := analysis.Load(dir, "fixture", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	all := *a
	all.AppliesTo = nil
	kept, _ := analysis.Check(pkgs, []*analysis.Analyzer{&all})

	type key struct {
		file string
		line int
	}
	wants := map[key]*regexp.Regexp{}
	matched := map[key]bool{}
	for _, pkg := range pkgs {
		for name, data := range pkg.Src {
			for i, line := range strings.Split(string(data), "\n") {
				m := wantRe.FindStringSubmatch(line)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp: %v", name, i+1, err)
				}
				wants[key{name, i + 1}] = re
			}
		}
	}

	for _, f := range kept {
		k := key{f.Pos.Filename, f.Pos.Line}
		re, ok := wants[k]
		if !ok {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		if got := fmt.Sprintf("[%s] %s", f.Check, f.Msg); !re.MatchString(got) {
			t.Errorf("%s:%d: finding %q does not match want `%s`", f.Pos.Filename, f.Pos.Line, got, re)
		}
		matched[k] = true
	}
	for k, re := range wants {
		if !matched[k] {
			t.Errorf("%s:%d: no finding matched want `%s`", k.file, k.line, re)
		}
	}
}
