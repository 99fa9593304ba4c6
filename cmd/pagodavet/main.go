// Command pagodavet enforces the repository's determinism rules (DESIGN.md
// "Determinism rules"): no wall-clock reads, unseeded randomness,
// order-dependent map iteration, order-unstable float accumulation, raw
// goroutines, or OS synchronization in simulation code — plus the
// interprocedural taintflow check, which traces nondeterminism sources
// through the whole-module call graph into sim-time sinks, and the unused
// check, which reports non-test functions no program can reach. It type-checks
// each requested package once (analysis.Load; the standard library through
// its source importer — no external dependencies, works offline), runs every
// check through analysis.Check, and exits nonzero on any unsuppressed
// finding, which is how `make check` fails the build.
//
// Usage:
//
//	pagodavet [-v] [-json] [packages]
//
// Packages default to ./... and follow the go tool's pattern shape. Findings
// print as
//
//	file:line: [check] message
//
// with the full source→sink call path appended for interprocedural findings.
// -json instead emits a machine-readable array of
// {file, line, check, msg, path, suppressed} objects for CI annotation.
//
// Exit codes follow cmd/pagodaperf's convention: 0 clean, 1 findings
// reported, 2 load/parse/flag error (including a pattern matching no
// packages — a typo'd path must not report "clean").
//
// Intentional exceptions are annotated in the source:
//
//	//pagoda:allow <check> <reason>
//
// either trailing the offending line or on the line above it. A suppression
// that suppresses nothing is itself reported (check "suppression"), so
// annotations cannot rot in place as code moves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/analysis/checks"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

func run(out, errw io.Writer, args []string) int {
	fs := flag.NewFlagSet("pagodavet", flag.ContinueOnError)
	fs.SetOutput(errw)
	verbose := fs.Bool("v", false, "also report suppressed findings and per-check totals")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array (suppressed ones included with -v)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(errw, "pagodavet:", err)
		return 2
	}
	pkgs, err := analysis.Load(cwd, "", patterns)
	if err != nil {
		fmt.Fprintln(errw, "pagodavet:", err)
		return 2
	}
	kept, suppressed := analysis.Check(pkgs, checks.All())
	if *asJSON {
		if err := emitJSON(out, cwd, kept, suppressed, *verbose); err != nil {
			fmt.Fprintln(errw, "pagodavet:", err)
			return 2
		}
	} else {
		for _, f := range kept {
			fmt.Fprintln(out, relFinding(cwd, f))
		}
		if *verbose {
			for _, f := range suppressed {
				fmt.Fprintf(out, "%s (suppressed)\n", relFinding(cwd, f))
			}
			fmt.Fprintf(out, "pagodavet: %d package(s), %d finding(s), %d suppressed\n",
				len(pkgs), len(kept), len(suppressed))
		}
	}
	if len(kept) > 0 {
		return 1
	}
	return 0
}

// jsonFinding is the -json wire shape, mirroring pagodabench's JSON export
// discipline: stable lowercase keys, machine-parseable, append-only.
type jsonFinding struct {
	File       string   `json:"file"`
	Line       int      `json:"line"`
	Check      string   `json:"check"`
	Msg        string   `json:"msg"`
	Path       []string `json:"path,omitempty"`
	Suppressed bool     `json:"suppressed,omitempty"`
}

func emitJSON(out io.Writer, cwd string, kept, suppressed []analysis.Finding, verbose bool) error {
	rows := make([]jsonFinding, 0, len(kept)+len(suppressed))
	add := func(f analysis.Finding, sup bool) {
		file := f.Pos.Filename
		if rel, err := filepath.Rel(cwd, file); err == nil {
			file = rel
		}
		rows = append(rows, jsonFinding{
			File: file, Line: f.Pos.Line, Check: f.Check, Msg: f.Msg,
			Path: f.Path, Suppressed: sup,
		})
	}
	for _, f := range kept {
		add(f, false)
	}
	if verbose {
		for _, f := range suppressed {
			add(f, true)
		}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// relFinding prints the finding with a cwd-relative path, the shape editors
// and CI logs expect.
func relFinding(cwd string, f analysis.Finding) string {
	if rel, err := filepath.Rel(cwd, f.Pos.Filename); err == nil {
		f.Pos.Filename = rel
	}
	return f.String()
}
