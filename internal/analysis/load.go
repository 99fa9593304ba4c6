package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one parsed and type-checked non-test package, ready for
// analyzers.
type Package struct {
	Path    string // full import path, e.g. repro/internal/sim
	RelPath string // module-relative, e.g. internal/sim ("" for the root)
	Fset    *token.FileSet
	Files   []*ast.File
	Src     map[string][]byte
	Types   *types.Package
	Info    *types.Info
}

// TypeOf is shorthand for Info.TypeOf.
func (p *Package) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// UsedPackage resolves an identifier to the package it names (via an import),
// or nil if it does not name one. Used to detect selector expressions like
// time.Now without being fooled by local variables named "time".
func (p *Package) UsedPackage(id *ast.Ident) *types.Package {
	if pn, ok := p.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported()
	}
	return nil
}

// Load parses and type-checks the packages matched by patterns. Patterns
// follow the go tool's shape, relative to dir: "./..." for the whole tree,
// "./internal/sim" for one directory, "./internal/..." for a subtree. Only
// non-test files are loaded — the determinism rules apply to simulation
// code, and tests legitimately use wall clocks and math/rand.
//
// With modPath "", the module is the one whose go.mod encloses dir. Otherwise
// dir is itself the root of a module named modPath that needs no go.mod —
// how analyzer fixtures load as module "fixture".
//
// Each matched package is type-checked once, in import order: an import of a
// matched package returns the one already checked, and everything else (the
// standard library, module packages outside the patterns) goes through the
// stdlib source importer, so Load needs no compiled export data and works
// offline on a clean checkout. The result is in directory order.
func Load(dir, modPath string, patterns []string) ([]*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := dir
	if modPath == "" {
		if root, modPath, err = findModule(dir); err != nil {
			return nil, err
		}
	}
	dirs, err := matchDirs(dir, patterns)
	if err != nil {
		return nil, err
	}

	l := &loader{fset: token.NewFileSet(), byPath: map[string]*Package{}, state: map[string]error{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	var pkgs []*Package
	for _, d := range dirs {
		pkg, err := l.parseDir(root, modPath, d)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			l.byPath[pkg.Path] = pkg
			pkgs = append(pkgs, pkg)
		}
	}
	if len(pkgs) == 0 {
		// A sweep that silently matches nothing would report "clean" for a
		// typo'd pattern; make it a load error so drivers exit 2, not 0.
		return nil, fmt.Errorf("analysis: no Go packages match %v", patterns)
	}
	for _, pkg := range pkgs {
		if err := l.check(pkg); err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

// matchDirs expands patterns, relative to dir, into a sorted directory list.
// Recursive patterns skip hidden, _-prefixed and testdata directories below
// their base.
func matchDirs(dir string, patterns []string) ([]string, error) {
	dirSet := map[string]bool{}
	for _, pat := range patterns {
		base, recursive := strings.CutSuffix(pat, "/...")
		if base == "." || base == "" {
			base = dir
		} else if !filepath.IsAbs(base) {
			base = filepath.Join(dir, base)
		}
		if !recursive {
			dirSet[filepath.Clean(base)] = true
			continue
		}
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			dirSet[filepath.Clean(p)] = true
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	dirs := make([]string, 0, len(dirSet))
	for d := range dirSet {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the module
// root directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if p, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(p), nil
				}
			}
			return "", "", fmt.Errorf("analysis: no module line in %s/go.mod", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		d = parent
	}
}

// A loader type-checks the matched packages of one Load. As the
// types.Importer of every check it hands out matched packages (checking each
// on first import) and defers everything else to the source importer.
type loader struct {
	fset   *token.FileSet
	std    types.Importer
	byPath map[string]*Package
	state  map[string]error // absent: unchecked; else the check's outcome, a cycle error while it runs
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	pkg, ok := l.byPath[path]
	if !ok {
		return l.std.Import(path)
	}
	if err := l.check(pkg); err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// check type-checks pkg unless an earlier import already did.
func (l *loader) check(pkg *Package) error {
	if err, done := l.state[pkg.Path]; done {
		return err
	}
	l.state[pkg.Path] = fmt.Errorf("analysis: import cycle through %s", pkg.Path)
	pkg.Info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
	}
	var typeErrs []error
	conf := types.Config{Importer: l, Error: func(err error) { typeErrs = append(typeErrs, err) }}
	pkg.Types, _ = conf.Check(pkg.Path, l.fset, pkg.Files, pkg.Info)
	var err error
	if len(typeErrs) > 0 {
		err = fmt.Errorf("analysis: type-checking %s: %v", pkg.Path, typeErrs[0])
	}
	l.state[pkg.Path] = err
	return err
}

// parseDir parses the non-test package in one directory, or returns nil if
// the directory holds no non-test Go files.
func (l *loader) parseDir(root, modPath, dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	src := map[string][]byte{}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.fset, path, data, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		files = append(files, f)
		src[path] = data
	}
	if len(files) == 0 {
		return nil, nil
	}

	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	if rel == "." {
		rel = ""
	}
	rel = filepath.ToSlash(rel)
	importPath := modPath
	if rel != "" {
		importPath = modPath + "/" + rel
	}
	return &Package{Path: importPath, RelPath: rel, Fset: l.fset, Files: files, Src: src}, nil
}
