package analysis

import (
	"go/token"
	"strings"
	"testing"
)

// checkDemo loads src as the only file of a scratch package and runs
// analysis.Check with a "demo" analyzer that reports one finding at the start
// of each given line.
func checkDemo(t *testing.T, src string, lines ...int) (kept, suppressed []Finding) {
	t.Helper()
	pkgs, err := Load(scratchModule(t, map[string]string{"p/fix.go": src}), "", []string{"./p"})
	if err != nil {
		t.Fatal(err)
	}
	demo := &Analyzer{Name: "demo", Run: func(pass *Pass) {
		tf := pass.Fset.File(pass.Pkgs[0].Files[0].Pos())
		for _, l := range lines {
			pass.Reportf(tf.LineStart(l), nil, "m")
		}
	}}
	return Check(pkgs, []*Analyzer{demo})
}

// checks lists the check names of fs, in order.
func checks(fs []Finding) []string {
	var out []string
	for _, f := range fs {
		out = append(out, f.Check)
	}
	return out
}

func TestTrailingSuppressionCoversItsOwnLine(t *testing.T) {
	kept, sup := checkDemo(t, "package p\n\nvar x = 1 //pagoda:allow demo trailing form\n", 3)
	if len(kept) != 0 || len(sup) != 1 {
		t.Fatalf("kept=%v suppressed=%v, want 0 kept / 1 suppressed", kept, sup)
	}
}

func TestStandaloneSuppressionCoversNextLine(t *testing.T) {
	const src = "package p\n\n//pagoda:allow demo standalone form\nvar x = 1\n"
	kept, sup := checkDemo(t, src, 4)
	if len(kept) != 0 || len(sup) != 1 {
		t.Fatalf("kept=%v suppressed=%v, want 0 kept / 1 suppressed", kept, sup)
	}
	// ... and not its own line, which leaves the directive stale.
	kept, sup = checkDemo(t, src, 3)
	if got := checks(kept); len(got) != 2 || got[0] != "demo" || got[1] != "suppression" || len(sup) != 0 {
		t.Fatalf("kept=%v suppressed=%v, want the demo finding and a stale directive kept", kept, sup)
	}
}

func TestSuppressionIsCheckSpecific(t *testing.T) {
	kept, sup := checkDemo(t, "package p\n\nvar x = 1 //pagoda:allow other justified elsewhere\n", 3)
	if got := checks(kept); len(got) != 2 || got[0] != "demo" || got[1] != "suppression" || len(sup) != 0 {
		t.Fatalf("kept=%v suppressed=%v, want the demo finding and a stale directive kept", kept, sup)
	}
}

func TestMalformedSuppressionIsItselfAFinding(t *testing.T) {
	for _, src := range []string{
		"package p\n\nvar x = 1 //pagoda:allow\n",      // no check, no reason
		"package p\n\nvar x = 1 //pagoda:allow demo\n", // no reason
	} {
		kept, _ := checkDemo(t, src)
		if len(kept) != 1 || kept[0].Check != "pagoda" ||
			!strings.Contains(kept[0].Msg, "malformed suppression") {
			t.Errorf("src %q: kept = %v, want one [pagoda] malformed-suppression finding", src, kept)
		}
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Pos: token.Position{Filename: "a/b.go", Line: 7}, Check: "wallclock", Msg: "no"}
	if got, want := f.String(), "a/b.go:7: [wallclock] no"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestLoadSelf exercises the loader end to end on this package's own
// directory: module discovery, parsing, and type checking with the source
// importer, all offline.
func TestLoadSelf(t *testing.T) {
	pkgs, err := Load(".", "", []string{"."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load(.) = %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.Path != "repro/internal/analysis" || p.RelPath != "internal/analysis" {
		t.Errorf("Path=%q RelPath=%q", p.Path, p.RelPath)
	}
	if p.Types == nil || p.Types.Name() != "analysis" {
		t.Errorf("type-checked package missing or misnamed: %v", p.Types)
	}
	for _, f := range p.Files {
		name := p.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			t.Errorf("loader picked up test file %s", name)
		}
	}
}
