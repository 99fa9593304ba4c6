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
// carrying //pagoda:allow and no want demonstrates suppression.
//
// Run exercises a per-package analyzer on a single fixture package (every
// .go file directly in the fixture dir). RunModule exercises a whole-module
// analyzer on a fixture *module*: the fixture dir's root files form package
// "fixture", and each subdirectory forms a package importable as
// "fixture/<subdir>", so fixtures can demonstrate flows that cross package
// boundaries.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

var wantRe = regexp.MustCompile("// want `([^`]*)`")

// Run loads the fixture package in dir, applies the per-package analyzer a,
// applies suppressions, and diffs the surviving findings against the
// fixture's want comments.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	pass, err := loadFixture(a, dir)
	if err != nil {
		t.Fatal(err)
	}
	a.Run(pass)
	kept, _ := analysis.ApplySuppressions(pass, pass.Findings())
	diffWants(t, kept, pass.Src)
}

// RunModule loads the fixture module in dir (root files plus one package
// per subdirectory), applies the whole-module analyzer a, applies
// suppressions across every fixture file, reports the directives that
// suppressed nothing as stale, and diffs the surviving findings against the
// want comments of all files.
func RunModule(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	pkgs, err := LoadFixtureModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	mp := analysis.NewModulePass(a, pkgs)
	a.RunModule(mp)

	var sups []analysis.Suppression
	var kept []analysis.Finding
	src := map[string][]byte{}
	for _, pkg := range pkgs {
		s, malformed := analysis.PackageSuppressions(pkg)
		sups = append(sups, s...)
		kept = append(kept, malformed...)
		for name, data := range pkg.Src {
			src[name] = data
		}
	}
	used := map[analysis.SupKey]bool{}
	k, _ := analysis.Partition(mp.Findings(), sups, used)
	kept = append(kept, k...)
	kept = append(kept, analysis.StaleFindings(sups, used)...)
	diffWants(t, kept, src)
}

// diffWants matches kept findings against the want comments in src.
func diffWants(t *testing.T, kept []analysis.Finding, src map[string][]byte) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := map[key]*regexp.Regexp{}
	matched := map[key]bool{}
	for name, data := range src {
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

// loadFixture parses and type-checks every .go file in dir as one package.
// Fixtures import only the standard library, which the source importer
// resolves offline.
func loadFixture(a *analysis.Analyzer, dir string) (*analysis.Pass, error) {
	fset := token.NewFileSet()
	files, src, err := parseDir(fset, dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysistest: no fixture files in %s", dir)
	}
	imp := &fixtureImporter{std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*types.Package{}}
	tpkg, info, err := check("fixture", fset, files, imp)
	if err != nil {
		return nil, fmt.Errorf("analysistest: type-checking %s: %v", dir, err)
	}
	return &analysis.Pass{
		Analyzer: a,
		Fset:     fset,
		Files:    files,
		Src:      src,
		Pkg:      tpkg,
		Info:     info,
		RelPath:  "fixture",
	}, nil
}

// LoadFixtureModule loads a fixture directory as a miniature module: the
// root's .go files become package "fixture" (module-relative path ""), each
// subdirectory's files become package "fixture/<subdir>" (relative path
// "<subdir>"), and fixture packages may import each
// other by those paths (resolved in dependency order). All packages share
// one FileSet, mirroring analysis.Load.
func LoadFixtureModule(dir string) ([]*analysis.Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type rawPkg struct {
		path  string
		dir   string
		files []*ast.File
		src   map[string][]byte
	}
	fset := token.NewFileSet()
	var raws []*rawPkg
	addDir := func(path, d string) error {
		files, src, err := parseDir(fset, d)
		if err != nil {
			return err
		}
		if len(files) > 0 {
			raws = append(raws, &rawPkg{path: path, dir: d, files: files, src: src})
		}
		return nil
	}
	if err := addDir("fixture", dir); err != nil {
		return nil, err
	}
	var subs []string
	for _, e := range ents {
		if e.IsDir() {
			subs = append(subs, e.Name())
		}
	}
	sort.Strings(subs)
	for _, s := range subs {
		if err := addDir("fixture/"+s, filepath.Join(dir, s)); err != nil {
			return nil, err
		}
	}
	if len(raws) == 0 {
		return nil, fmt.Errorf("analysistest: no fixture files under %s", dir)
	}

	imp := &fixtureImporter{std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*types.Package{}}
	var pkgs []*analysis.Package
	remaining := raws
	for len(remaining) > 0 {
		var next []*rawPkg
		var lastErr error
		for _, r := range remaining {
			tpkg, info, err := check(r.path, fset, r.files, imp)
			if err != nil {
				// Likely an import of a fixture package not yet checked;
				// retry next round.
				lastErr = err
				next = append(next, r)
				continue
			}
			imp.pkgs[r.path] = tpkg
			pkgs = append(pkgs, &analysis.Package{
				Path: r.path, RelPath: strings.TrimPrefix(strings.TrimPrefix(r.path, "fixture"), "/"), Dir: r.dir, Fset: fset,
				Files: r.files, Src: r.src, Types: tpkg, Info: info,
			})
		}
		if len(next) == len(remaining) {
			return nil, fmt.Errorf("analysistest: type-checking fixture module %s: %v", dir, lastErr)
		}
		remaining = next
	}
	return pkgs, nil
}

// fixtureImporter resolves "fixture/..." paths from already-checked fixture
// packages and everything else through the standard source importer.
type fixtureImporter struct {
	std  types.Importer
	pkgs map[string]*types.Package
}

func (i *fixtureImporter) Import(path string) (*types.Package, error) {
	if p, ok := i.pkgs[path]; ok {
		return p, nil
	}
	if path == "fixture" || strings.HasPrefix(path, "fixture/") {
		return nil, fmt.Errorf("fixture package %q not yet loaded", path)
	}
	return i.std.Import(path)
}

// parseDir parses every non-test .go file directly in dir.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, map[string][]byte, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	src := map[string][]byte{}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		f, err := parser.ParseFile(fset, path, data, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
		src[path] = data
	}
	return files, src, nil
}

// check type-checks one fixture package.
func check(path string, fset *token.FileSet, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return tpkg, info, nil
}
