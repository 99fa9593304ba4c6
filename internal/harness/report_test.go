package harness

import (
	"strings"
	"testing"
)

// TestFprintAlignsRowsWiderThanHeader pins the column-width fix: rows with
// more cells than the header must still print with every column aligned
// (widths used to be sized only for header-length columns, leaving the
// overflow cells ragged).
func TestFprintAlignsRowsWiderThanHeader(t *testing.T) {
	r := newReport("figX", "Wide", "A", "B")
	r.addRow("x", "1", "short", "9")
	r.addRow("yyyy", "22", "a-much-longer-cell", "10")
	var sb strings.Builder
	r.Fprint(&sb)
	lines := strings.Split(sb.String(), "\n")
	// lines: title, header, separator, row1, row2, blank...
	row1, row2 := lines[3], lines[4]
	if len(row1) != len(row2) {
		t.Fatalf("rows render at different widths:\n%q\n%q", row1, row2)
	}
	// Every cell of row1 must start at the same offset as row2's.
	off1 := strings.Index(row1, "short")
	off2 := strings.Index(row2, "a-much-longer-cell")
	if off1 != off2 {
		t.Errorf("third column misaligned: offset %d vs %d:\n%q\n%q", off1, off2, row1, row2)
	}
	if c1, c2 := strings.Index(row1, "9"), strings.Index(row2, "10"); c1 != c2 {
		t.Errorf("fourth column misaligned: offset %d vs %d:\n%q\n%q", c1, c2, row1, row2)
	}
}

// TestFprintHeaderWidthUnchanged guards the common case: for well-formed
// tables (rows no wider than the header) the rendering is exactly the
// pre-fix output, so EXPERIMENTS.md regenerations stay stable.
func TestFprintHeaderWidthUnchanged(t *testing.T) {
	r := newReport("figX", "Test", "Benchmark", "Speedup")
	r.addRow("MB", "1.50")
	var sb strings.Builder
	r.Fprint(&sb)
	want := "== FIGX: Test ==\n" +
		"Benchmark  Speedup  \n" +
		"---------  -------  \n" +
		"MB         1.50     \n" +
		"\n"
	if sb.String() != want {
		t.Errorf("rendering changed for a well-formed table:\ngot:\n%q\nwant:\n%q", sb.String(), want)
	}
}
