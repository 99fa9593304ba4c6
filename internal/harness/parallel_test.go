package harness

import (
	"bytes"
	"flag"
	"testing"

	"repro/internal/golden"
)

var update = flag.Bool("update", false, "rewrite testdata/report_digests.txt from this run")

// reportDigests is the committed corpus of rendered-report digests. The
// pagodatrace tests keep their trace digests in the same file.
const reportDigests = "testdata/report_digests.txt"

// formats names renderAll's encodings, in order.
var formats = [...]string{"text", "csv", "json"}

// renderAll renders a report in every supported encoding; any nondeterminism
// in rows, Values or notes shows up as a byte difference.
func renderAll(t *testing.T, r *Report) [len(formats)][]byte {
	t.Helper()
	var text, csv, js bytes.Buffer
	r.Fprint(&text)
	if err := r.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	return [...][]byte{text.Bytes(), csv.Bytes(), js.Bytes()}
}

// TestAllExperimentsDeterministicAndParallelSafe runs EVERY experiment ID
// three times — twice with the sequential cell order (Parallel=1) and once on
// a 4-wide worker pool — and requires byte-identical rendered output across
// all three. The double run catches state leaking between runs (extending
// runners' TestDoubleRunDeterminism to the whole harness); the parallel run
// is the committed guarantee that the cell scheduler never changes results.
// Under `go test -race` (make check) this is also the data-race probe for
// the parallel sweep path. Each encoding's digest must also match the
// committed corpus (reportDigests), so no change can move a report byte
// unnoticed; -update rewrites those entries.
func TestAllExperimentsDeterministicAndParallelSafe(t *testing.T) {
	if testing.Short() {
		t.Skip("harness sweep")
	}
	for _, id := range Experiments() {
		t.Run(id, func(t *testing.T) {
			p := Params{Tasks: 48, SMMs: 4, Seed: 1, Parallel: 1}
			run := func(p Params) [len(formats)][]byte {
				rep, err := Run(id, p)
				if err != nil {
					t.Fatal(err)
				}
				return renderAll(t, rep)
			}
			seq1 := run(p)
			seq2 := run(p)
			p.Parallel = 4
			par := run(p)
			for i, f := range formats {
				if !bytes.Equal(seq1[i], seq2[i]) {
					t.Errorf("%s %s: double sequential run differs (state leaks between runs)", id, f)
				}
				if !bytes.Equal(seq1[i], par[i]) {
					t.Errorf("%s %s: parallel output differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s",
						id, f, seq1[i], par[i])
				}
				golden.Check(t, reportDigests, "harness/"+id+"."+f, seq1[i], *update)
			}
		})
	}
}
