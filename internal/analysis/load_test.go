package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scratchModule builds a throwaway module root with the given files
// (paths relative to the root) and returns its directory.
func scratchModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module scratch\n\ngo 1.22\n"
	for rel, src := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestLoadUnparseableSource(t *testing.T) {
	dir := scratchModule(t, map[string]string{
		"broken/broken.go": "package broken\n\nfunc {\n",
	})
	_, err := Load(dir, "", []string{"./broken"})
	if err == nil || !strings.Contains(err.Error(), "expected") {
		t.Fatalf("Load of unparseable source = %v, want a parse error", err)
	}
}

func TestLoadNoPackagesMatched(t *testing.T) {
	dir := scratchModule(t, map[string]string{
		"empty/README.txt": "no go files here\n",
	})
	for _, pat := range [][]string{{"./empty"}, {"./empty/..."}} {
		_, err := Load(dir, "", pat)
		if err == nil || !strings.Contains(err.Error(), "no Go packages match") {
			t.Errorf("Load(%v) = %v, want a no-packages error", pat, err)
		}
	}
}

func TestLoadNonexistentDir(t *testing.T) {
	dir := scratchModule(t, map[string]string{})
	if _, err := Load(dir, "", []string{"./nope"}); err == nil {
		t.Fatal("Load of a nonexistent directory succeeded, want an error")
	}
	if _, err := Load(dir, "", []string{"./nope/..."}); err == nil {
		t.Fatal("Load of a nonexistent recursive pattern succeeded, want an error")
	}
}

func TestLoadTypeCheckFailure(t *testing.T) {
	dir := scratchModule(t, map[string]string{
		"bad/bad.go": "package bad\n\nfunc f() int { return undefinedSymbol }\n",
	})
	_, err := Load(dir, "", []string{"./..."})
	if err == nil || !strings.Contains(err.Error(), "type-checking") {
		t.Fatalf("Load of ill-typed package = %v, want a type-checking error", err)
	}
}

func TestLoadNoModule(t *testing.T) {
	dir := t.TempDir() // no go.mod anywhere above (t.TempDir is outside the repo)
	if _, err := Load(dir, "", []string{"."}); err == nil ||
		!strings.Contains(err.Error(), "no go.mod") {
		t.Fatalf("Load outside any module = %v, want a no-go.mod error", err)
	}
}

// TestLoadChecksEachPackageOnce pins the loader's import resolution with a
// named module (the fixture form, which ignores go.mod): an import of a
// matched package resolves to the very package Load checked, and an import
// cycle is an error rather than endless recursion.
func TestLoadChecksEachPackageOnce(t *testing.T) {
	dir := scratchModule(t, map[string]string{
		"a/a.go": "package a\n\nfunc F() {}\n",
		"b/b.go": "package b\n\nimport \"fixture/a\"\n\nvar _ = a.F\n",
	})
	pkgs, err := Load(dir, "fixture", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 || pkgs[0].Path != "fixture/a" || pkgs[1].RelPath != "b" {
		t.Fatalf("Load = %v, want fixture/a then fixture/b", pkgs)
	}
	if imps := pkgs[1].Types.Imports(); len(imps) != 1 || imps[0] != pkgs[0].Types {
		t.Errorf("fixture/b imports %v, want the checked fixture/a itself", imps)
	}

	dir = scratchModule(t, map[string]string{
		"a/a.go": "package a\n\nimport \"fixture/b\"\n\nvar _ = b.G\n\nfunc F() {}\n",
		"b/b.go": "package b\n\nimport \"fixture/a\"\n\nvar G = a.F\n",
	})
	if _, err := Load(dir, "fixture", []string{"./..."}); err == nil || !strings.Contains(err.Error(), "import cycle") {
		t.Errorf("Load of an import cycle = %v, want an import-cycle error", err)
	}
}
