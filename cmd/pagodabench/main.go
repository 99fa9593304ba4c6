// Command pagodabench regenerates the tables and figures of the Pagoda
// paper's evaluation (§6) on the simulated Titan X.
//
// Usage:
//
//	pagodabench -exp fig5             # one experiment
//	pagodabench -exp fig5,fig6        # a chosen subset
//	pagodabench -exp all -tasks 8192  # the full evaluation at a given scale
//
// The paper's runs use -tasks 32768; the default 2048 preserves every shape
// at laptop runtimes. Experiment cells (independent simulations) run on a
// worker pool sized by -parallel; output is byte-identical at every width.
//
// Output is aligned text, one block per table/figure. With -format json a
// single experiment emits one JSON document and a multi-experiment run emits
// one JSON array; with -format csv a multi-experiment run emits a single
// stream with a leading "experiment" column.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/runners"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

// run executes the requested experiments; split from main so the smoke test
// can drive the command without spawning a process.
func run(out, errw io.Writer, args []string) int {
	fs := flag.NewFlagSet("pagodabench", flag.ContinueOnError)
	fs.SetOutput(errw)
	exp := fs.String("exp", "all", "experiment id(s), comma-separated: all, "+fmt.Sprint(harness.Experiments()))
	tasks := fs.Int("tasks", 2048, "tasks per benchmark (paper: 32768)")
	smms := fs.Int("smms", 24, "simulated SMM count (Titan X: 24)")
	seed := fs.Int64("seed", 1, "workload generation and arrival-stream seed (recorded in JSON/CSV exports)")
	parallel := fs.Int("parallel", 0, "experiment cells run concurrently (0 = all CPUs, 1 = sequential)")
	slo := fs.Float64("slo", 1000, "p99 latency SLO for the serve_* and cluster_* experiments, microseconds")
	nodes := fs.Int("nodes", 4, "fleet size for the cluster_* experiments")
	minNodes := fs.Int("minnodes", 2, "cluster_autoscale lower fleet bound")
	maxNodes := fs.Int("maxnodes", 8, "cluster_autoscale upper fleet bound (equal to -minnodes disables scaling)")
	autoPol := fs.String("autoscale", "", "cluster_autoscale scaling policy (default all): "+strings.Join(autoscale.PolicyNames(), ", "))
	policy := fs.String("policy", "rr", "cluster routing policy: "+strings.Join(cluster.PolicyNames(), ", "))
	scheme := fs.String("scheme", "", "GPU scheme(s) the serve_*/cluster_* experiments sweep, comma-separated (default all): "+strings.Join(runners.SchemeKeys(), ", "))
	oversub := fs.Float64("oversub", 0, "zorua oversubscription factor (0 = scheme default 1.5, 1 = physical admission)")
	tenants := fs.Int("tenants", 3, "tenant classes for the tenant_qos experiment")
	misbehave := fs.Int("misbehave", 1, "tenant_qos class index offering 10x its contracted rate (-1 = all honest)")
	format := fs.String("format", "text", "output format: text, csv, json")
	list := fs.Bool("list", false, "list experiment ids and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h printed the usage
		}
		return 2
	}

	if *list {
		for _, id := range harness.Experiments() {
			fmt.Fprintln(out, id)
		}
		return 0
	}

	if _, err := cluster.NewPolicy(*policy, *seed); err != nil {
		fmt.Fprintln(errw, err)
		return 2
	}
	if *nodes < 1 {
		fmt.Fprintf(errw, "-nodes %d: a cluster needs at least one node\n", *nodes)
		return 2
	}
	if err := gpu.TitanX().CheckOversub(*oversub); err != nil {
		fmt.Fprintf(errw, "-oversub %g: %s\n", *oversub, err)
		return 2
	}
	if *oversub != 0 && *oversub < 1.0 {
		fmt.Fprintf(errw, "-oversub %g: factor below 1.0 would under-provision physical resources (use 1 for physical admission, 0 for the scheme default)\n", *oversub)
		return 2
	}
	if *minNodes < 1 {
		fmt.Fprintf(errw, "-minnodes %d: the elastic fleet's lower bound must be at least one node\n", *minNodes)
		return 2
	}
	if *minNodes > *maxNodes {
		fmt.Fprintf(errw, "-minnodes %d exceeds -maxnodes %d: the elastic fleet bounds are inverted\n", *minNodes, *maxNodes)
		return 2
	}
	if *autoPol != "" {
		if _, err := autoscale.NewPolicy(*autoPol, autoscale.DefaultTuning()); err != nil {
			fmt.Fprintf(errw, "-autoscale %q: %s\n", *autoPol, err)
			return 2
		}
	}
	var schemes []string // empty -scheme means every scheme
	if strings.TrimSpace(*scheme) != "" {
		var err error
		if schemes, err = expandList("scheme", "scheme", runners.SchemeKeys(), false, *scheme); err != nil {
			fmt.Fprintln(errw, err)
			return 2
		}
	}
	if *tenants < 1 {
		fmt.Fprintf(errw, "-tenants %d: need at least one tenant class\n", *tenants)
		return 2
	}
	if *misbehave < -1 || *misbehave >= *tenants {
		fmt.Fprintf(errw, "-misbehave %d: want a class index in [0, %d) or -1 for all honest\n", *misbehave, *tenants)
		return 2
	}
	if *tasks < 0 || *smms < 0 || !(*slo >= 0) || *parallel < 0 {
		fmt.Fprintf(errw, "-tasks %d -smms %d -slo %g -parallel %d: none may be negative (0 means the default)\n",
			*tasks, *smms, *slo, *parallel)
		return 2
	}
	p := harness.Params{Tasks: *tasks, SMMs: *smms, Seed: *seed, Parallel: *parallel,
		SLOUs: *slo, Nodes: *nodes, Policy: *policy, Schemes: schemes, Oversub: *oversub,
		Tenants: *tenants, Misbehave: *misbehave,
		MinNodes: *minNodes, MaxNodes: *maxNodes, Autoscale: *autoPol}

	ids, err := expandList("exp", "experiment", harness.Experiments(), true, *exp)
	if err != nil {
		fmt.Fprintln(errw, err)
		return 2
	}
	multi := len(ids) > 1

	var reps []*harness.Report
	for _, id := range ids {
		start := time.Now()
		rep, err := harness.Run(id, p)
		if err != nil {
			fmt.Fprintln(errw, err)
			return 2
		}
		switch *format {
		case "csv", "json":
			// Multi-experiment runs must emit ONE parseable stream, so the
			// reports are collected and rendered together after the loop.
			reps = append(reps, rep)
		default:
			rep.Fprint(out)
			// The timing footer goes to stderr: it is the one line that varies
			// between runs, and keeping it off stdout keeps text output
			// byte-identical across repeats, like the csv/json formats.
			fmt.Fprintf(errw, "(%s regenerated in %.1fs)\n", id, time.Since(start).Seconds())
		}
	}

	switch {
	case *format == "csv" && multi:
		err = harness.WriteCSVAll(out, reps)
	case *format == "csv":
		err = reps[0].WriteCSV(out)
	case *format == "json" && multi:
		err = harness.WriteJSONAll(out, reps)
	case *format == "json":
		err = reps[0].WriteJSON(out)
	}
	if err != nil {
		fmt.Fprintln(errw, err)
		return 1
	}
	return 0
}

// expandList resolves a comma-separated list flag against its valid set,
// cleaned up the way a shell-assembled flag needs: surrounding whitespace
// trimmed, empty entries (trailing or doubled commas) dropped, repeats
// deduped keeping first position. With all set, "all" names the whole set.
// An unknown name fails up front with the valid set, before any experiment
// burns minutes of simulation.
func expandList(flagName, noun string, valid []string, all bool, expr string) ([]string, error) {
	list := strings.Join(valid, ", ")
	if all {
		if strings.TrimSpace(expr) == "all" {
			return valid, nil
		}
		list = "all, " + list
	}
	seen := make(map[string]bool)
	var out []string
	for _, k := range strings.Split(expr, ",") {
		k = strings.TrimSpace(k)
		if k == "" || seen[k] {
			continue
		}
		if !slices.Contains(valid, k) {
			return nil, fmt.Errorf("unknown %s %q (valid: %s)", noun, k, list)
		}
		seen[k] = true
		out = append(out, k)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-%s %q names no %ss (valid: %s)", flagName, expr, noun, list)
	}
	return out, nil
}
