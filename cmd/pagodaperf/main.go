// Command pagodaperf is the machine-verified performance-regression gate:
// it re-runs the bench commands recorded in the BENCH_*.json baseline files,
// extracts each declared metric (go-bench ns/op and allocs/op columns,
// pagodabench report values, command wall clock), and fails with a
// per-metric verdict table when anything drifts past its tolerance band.
//
// Usage:
//
//	pagodaperf                    # full gate over the default baseline files
//	pagodaperf -quick             # the cheap subset wired into `make check`
//	pagodaperf -update            # re-measure and ratchet the baselines,
//	                              # restamping host/date/git-rev provenance
//	pagodaperf BENCH_sim.json     # specific file(s)
//
// Exit status: 0 all metrics within tolerance, 1 regression or broken
// command, 2 usage error. Baselines are host-relative — after `-update` on a
// new machine the tolerance bands do the cross-host absorbing; see DESIGN.md
// §9 for the schema and the band-width rationale.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/perf"
)

// defaultFiles are the baseline suites at the repo root, gated together.
var defaultFiles = []string{"BENCH_sim.json", "BENCH_serve.json", "BENCH_cluster.json"}

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

// run executes the gate; split from main so the smoke test can drive the
// command without spawning a process.
func run(out, errw io.Writer, args []string) int {
	fs := flag.NewFlagSet("pagodaperf", flag.ContinueOnError)
	fs.SetOutput(errw)
	quick := fs.Bool("quick", false, "run only the metrics marked quick (the make-check subset)")
	update := fs.Bool("update", false, "re-measure every metric and rewrite the baselines with fresh provenance")
	dir := fs.String("C", ".", "directory to run the recorded commands in (the repo root)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h printed the usage
		}
		return 2
	}
	if *quick && *update {
		fmt.Fprintln(errw, "pagodaperf: -update must measure the full metric set; drop -quick")
		return 2
	}
	files := fs.Args()
	if len(files) == 0 {
		files = defaultFiles
	}

	failed := false
	for _, path := range files {
		s, err := perf.Load(path)
		if err != nil {
			fmt.Fprintln(errw, err)
			return 2
		}
		r := &perf.Runner{Dir: *dir, Quick: *quick, Log: errw}
		vs := r.Run(s)
		perf.FprintVerdicts(out, s.Suite, vs)
		fmt.Fprintln(out)
		if perf.Failed(vs) {
			failed = true
		}
		if *update {
			perf.ApplyUpdate(s, vs, perf.Stamp(*dir))
			if err := s.Save(path); err != nil {
				fmt.Fprintln(errw, err)
				return 1
			}
			fmt.Fprintf(out, "pagodaperf: ratcheted %s (rev %s)\n", path, s.Provenance.GitRev)
		}
	}
	if failed && !*update {
		fmt.Fprintf(errw, "pagodaperf: performance regression past tolerance (baselines: %s); "+
			"if intentional, ratchet with -update\n", strings.Join(files, ", "))
		return 1
	}
	return 0
}
