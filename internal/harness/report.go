// Package harness regenerates every table and figure of the paper's
// evaluation (§6): it assembles workloads, runs them under each execution
// scheme via internal/runners, and prints the same rows/series the paper
// reports. See DESIGN.md §3 for the experiment index.
package harness

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Report is one regenerated table or figure.
type Report struct {
	ID     string // "fig5", "table5", ...
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string

	// Seed is the PRNG seed threaded through the experiment's arrival
	// generators and routing policies, recorded so an exported artifact names
	// the randomness that produced it. Seeded says whether the experiment
	// consumed one at all (closed-loop sweeps do not, and their exports omit
	// it): tracking seededness explicitly keeps an explicit -seed 0 run from
	// being mistaken for an unseeded one, which the old Seed != 0 sentinel
	// gating did. Set both through setSeed.
	Seed   int64
	Seeded bool

	// Values holds machine-readable series keyed "row/col" for tests and
	// EXPERIMENTS.md generation.
	Values map[string]float64
}

func newReport(id, title string, header ...string) *Report {
	return &Report{ID: id, Title: title, Header: header, Values: map[string]float64{}}
}

func (r *Report) addRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// setSeed records the seed an experiment consumed. Experiments that use any
// randomness must call it — including with seed 0, which is as valid a seed
// as any other.
func (r *Report) setSeed(seed int64) { r.Seed, r.Seeded = seed, true }

func (r *Report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *Report) set(key string, v float64) { r.Values[key] = v }

// Fprint renders the report as an aligned text table.
func (r *Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", strings.ToUpper(r.ID), r.Title)
	// Size columns over the header AND every row: rows may be wider than the
	// header (and would otherwise print misaligned).
	cols := len(r.Header)
	for _, row := range r.Rows {
		if len(row) > cols {
			cols = len(row)
		}
	}
	widths := make([]int, cols)
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(w, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// geomean returns the geometric mean of vs. Every input must be positive and
// finite: a zero, negative, NaN or infinite speedup means some run produced a
// nonsensical time, and the old behavior of returning 0 silently zeroed the
// published headline instead of surfacing the broken cell — so it panics.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		panic("harness: geomean of an empty series (broken sweep)")
	}
	sum := 0.0
	for _, v := range vs {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("harness: geomean input %v is not a positive finite speedup (broken run)", v))
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

func ms(cycles float64) string { return fmt.Sprintf("%.2f", cycles/1e6) }

func us(cycles float64) string { return fmt.Sprintf("%.1f", cycles/1e3) }
