// Command pagodatrace runs a narrow-task workload on Pagoda with execution
// tracing enabled and writes a Chrome trace-event JSON timeline (load it in
// chrome://tracing or https://ui.perfetto.dev) showing every task span per
// MTB — the reproduction's answer to profiling a MasterKernel run with
// nvprof.
//
// Usage:
//
//	pagodatrace -bench MB -tasks 256 -o trace.json
//	pagodatrace -nodes 4 -policy p2c -scheme pagoda -o fleet.json
//
// With -nodes N > 0 the command switches to cluster mode: it runs an
// open-loop arrival stream on an N-node fleet (one engine, one clock) and
// writes a merged trace with one wait/service track per node
// ("node00/serve-pagoda", ...). Track order is stable — lexicographic, which
// is node order — and the printed summary groups by node, then category.
//
// With -tenants N > 0 the command switches to tenant mode instead: the
// open-loop stream is the merge of N tenant classes (premium/standard/batch
// tiers, one misbehaving at 10x its contract) through the class-aware
// admission layer, and the trace carries one wait/service track per tenant
// ("tenant-premium/serve-pagoda", ...) with a per-tenant outcome summary.
//
// With -autoscale <policy> the fleet is elastic instead of fixed: a diurnal
// arrival wave drives the named scaling policy between -minnodes and
// -maxnodes, and the trace gains a "fleet/scale" track whose warmup, active
// and drain spans show each node's lifecycle alongside the per-node serve
// tracks. Mutually exclusive with -tenants.
//
// The three timed-arrival modes share one fleet run; their wait/service
// spans are built from the run's records (runners.ClusterRun.AddServeSpans).
// Bad flags exit 2, any other failure exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro"
	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/runners"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tenancy"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	os.Exit(exitCode(os.Stderr, run(os.Stdout, os.Args[1:])))
}

// exitCode reports run's error on errw and maps it to the exit status: 0 on
// success or -h, 2 on a usage error, 1 on any other failure.
func exitCode(errw io.Writer, err error) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	fmt.Fprintln(errw, err)
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// usageError marks an error caused by the command line; main exits 2 on it.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

func usagef(format string, a ...any) error { return usageError{fmt.Errorf(format, a...)} }

// run executes the traced simulation; split from main so the smoke test can
// drive the command with small flags and inspect the written trace.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("pagodatrace", flag.ContinueOnError)
	benchName := fs.String("bench", "MB", "workload: MB, FB, BF, CONV, DCT, MM, SLUD, 3DES, MPE, XFMR")
	tasks := fs.Int("tasks", 256, "number of tasks")
	threads := fs.Int("threads", 128, "threads per task (0 = the benchmark default)")
	smms := fs.Int("smms", 8, "simulated SMMs")
	seed := fs.Int64("seed", 1, "workload and arrival-stream seed")
	nodes := fs.Int("nodes", 0, "cluster mode: fleet size (0 = single-device closed-loop trace)")
	autoPol := fs.String("autoscale", "", "elastic cluster mode: scaling policy (empty = fixed fleet): "+strings.Join(autoscale.PolicyNames(), ", "))
	minNodes := fs.Int("minnodes", 2, "elastic mode lower fleet bound")
	maxNodes := fs.Int("maxnodes", 8, "elastic mode upper fleet bound")
	policy := fs.String("policy", "rr", "cluster mode routing policy: "+fmt.Sprint(cluster.PolicyNames()))
	scheme := fs.String("scheme", "pagoda", "cluster/tenant mode execution scheme: "+strings.Join(runners.SchemeKeys(), ", "))
	rate := fs.Float64("rate", 64e3, "cluster/tenant mode offered arrival rate (per node / contracted per class), tasks/s")
	tenants := fs.Int("tenants", 0, "tenant mode: tenant classes (0 = off); one wait/service track per tenant")
	admit := fs.String("admit", tenancy.AdmitStrict, "tenant mode admission policy: "+strings.Join(tenancy.Kinds(), ", "))
	out := fs.String("o", "trace.json", "output file")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	maxThreads := core.DefaultConfig().ExecutorWarpsPerMTB() * 32
	// maxRate is one arrival per simulated cycle: every mode scales -rate
	// (by fleet size, or a tenant's spike) to values that stay finite.
	const maxRate = 1e9
	// horizon is tenant mode's arrival window, one tenant's share of -tasks
	// at -rate. A class's flash-crowd spike lasts a fifth of it and must
	// span a whole cycle, so the window needs minHorizon cycles.
	const minHorizon = 5
	horizon := sim.Time(float64(*tasks) / float64(max(*tenants, 1)) / *rate * 1e9)
	switch {
	case *nodes > 0 && *tenants > 0:
		return usagef("pagodatrace: -nodes and -tenants are mutually exclusive modes")
	case *autoPol != "" && *tenants > 0:
		return usagef("pagodatrace: -autoscale and -tenants are mutually exclusive modes")
	case *minNodes < 1 || *minNodes > *maxNodes:
		return usagef("pagodatrace: fleet bounds %d..%d are not a valid range", *minNodes, *maxNodes)
	case *autoPol != "" && *minNodes == *maxNodes:
		return usagef("pagodatrace: -autoscale needs -maxnodes above -minnodes (equal bounds are a fixed fleet: use -nodes %d)", *minNodes)
	case *nodes < 0 || *tenants < 0:
		return usagef("pagodatrace: -nodes %d and -tenants %d must not be negative", *nodes, *tenants)
	case *tasks < 1:
		return usagef("pagodatrace: -tasks %d: need at least one task", *tasks)
	case *tenants > *tasks:
		return usagef("pagodatrace: -tenants %d exceeds -tasks %d: a tenant with no task would trace an empty track", *tenants, *tasks)
	case *smms < 1:
		return usagef("pagodatrace: -smms %d: need at least one SMM", *smms)
	case *threads < 0 || *threads > maxThreads:
		return usagef("pagodatrace: -threads %d is outside 0..%d, the executor lanes of an MTB (0 = the benchmark default)", *threads, maxThreads)
	case !(*rate > 0 && *rate <= maxRate):
		return usagef("pagodatrace: -rate %v is outside (0, %g] tasks/s, at most one arrival per simulated cycle", *rate, float64(maxRate))
	case *tenants > 0 && horizon < minHorizon:
		return usagef("pagodatrace: -tasks %d over -tenants %d at -rate %v arrive within %.3g cycles, under the %d a tenant's arrival pattern needs",
			*tasks, *tenants, *rate, horizon, minHorizon)
	}

	b, err := workloads.ByName(*benchName)
	if err != nil {
		return usageError{err}
	}
	defs := b.Make(workloads.Options{Tasks: *tasks, Threads: *threads, Seed: *seed})
	if *autoPol == "" && *nodes == 0 && *tenants == 0 {
		return runPlain(w, defs, *benchName, *smms, *out)
	}

	sc, ok := runners.SchemeByKey(*scheme)
	if !ok {
		return usagef("pagodatrace: unknown scheme %q (valid: %s)", *scheme, strings.Join(runners.SchemeKeys(), ", "))
	}
	mk, err := cluster.NewPolicy(*policy, *seed)
	if err != nil {
		return usageError{err}
	}
	cfg := runners.DefaultConfig()
	cfg.SMMs = *smms

	// Each mode fills in its arrivals and fleet shape, an optional per-task
	// track (nil: the task's node track), and its summary printer.
	co := runners.ClusterOpenLoop{Policy: mk()}
	var track func(ti int) string
	var report func(tr *trace.Tracer, res runners.Result, cr runners.ClusterRun)
	switch {
	case *autoPol != "":
		tu := autoscale.DefaultTuning()
		tu.PerNodeRate = *rate
		mkPol, err := autoscale.NewPolicy(*autoPol, tu)
		if err != nil {
			return usagef("pagodatrace: %v", err)
		}
		// A diurnal wave whose mean sits mid-band, with a short control loop
		// and warm-up so even small -tasks runs show scale events on the
		// timeline.
		gen := serve.Diurnal{MeanRate: *rate * float64(*minNodes+*maxNodes) / 2, Swing: 0.8, Period: 400_000, Seed: *seed}
		if err := gen.Validate(); err != nil {
			return usageError{err}
		}
		co.Arrivals = gen.Times(len(defs))
		co.Scaler = &autoscale.Config{Min: *minNodes, Max: *maxNodes, Policy: mkPol,
			Interval: 50_000, Warmup: 200_000, Cooldown: 100_000}
		report = func(tr *trace.Tracer, res runners.Result, cr runners.ClusterRun) {
			o := cr.Scale
			fmt.Fprintf(w, "ran %d %s tasks on an elastic %d..%d %s fleet (%s scaling, policy %s) in %.2f ms simulated; wrote %d spans to %s\n",
				len(defs), *benchName, *minNodes, *maxNodes, *scheme, *autoPol, *policy, res.Elapsed/1e6, tr.Len(), *out)
			fmt.Fprintf(w, "  fleet/scale: %d scale-outs, %d scale-ins, peak %d nodes, %.4f node-seconds\n",
				o.ScaleOuts, o.ScaleIns, o.Peak, o.NodeSeconds())
			for i, name := range cr.Names {
				v, sp := cr.Views[i], o.Nodes[i]
				fmt.Fprintf(w, "  %s: routed %d, done %d, dropped %d (provisioned %.1f us, retired %.1f us)\n",
					name, v.Routed, v.Done, v.Dropped, sp.ProvisionedAt/1e3, sp.RetiredAt/1e3)
			}
		}
	case *nodes > 0:
		gen := serve.Poisson{Rate: *rate * float64(*nodes), Seed: *seed}
		if err := gen.Validate(); err != nil {
			return usageError{err}
		}
		co.Arrivals = gen.Times(len(defs))
		co.Nodes = *nodes
		report = func(tr *trace.Tracer, res runners.Result, cr runners.ClusterRun) {
			fmt.Fprintf(w, "ran %d %s tasks on %d %s nodes (policy %s) in %.2f ms simulated; wrote %d spans to %s\n",
				len(defs), *benchName, *nodes, *scheme, *policy, res.Elapsed/1e6, tr.Len(), *out)
			byTrack := tr.SummaryByTrack()
			for i, name := range cr.Names { // "node%02d/..." names: index order = lexicographic order
				v := cr.Views[i]
				fmt.Fprintf(w, "  %s: routed %d, done %d, dropped %d\n", name, v.Routed, v.Done, v.Dropped)
				printCats(w, "    %-10s %6d spans, %10.1f us total\n", byTrack[name])
			}
		}
	case *tenants > 0:
		if !slices.Contains(tenancy.Kinds(), *admit) {
			return usagef("pagodatrace: unknown admission policy %q (valid: %s)", *admit, strings.Join(tenancy.Kinds(), ", "))
		}
		const slo = sim.Time(1000e3) // 1000us premium p99 bound
		classes := tenancy.DefaultClasses(*tenants, *rate, slo, horizon, *seed, 1)
		counts := make([]int, *tenants)
		tracks := make([]string, *tenants)
		for c, cl := range classes {
			if err := cl.Validate(); err != nil {
				return usageError{err}
			}
			counts[c] = *tasks / *tenants
			if c < *tasks%*tenants {
				counts[c]++
			}
			tracks[c] = fmt.Sprintf("tenant-%s/serve-%s", cl.Name, *scheme)
		}
		arrivals, classOf := tenancy.Merge(classes, counts)
		adm := tenancy.NewAdmission(*admit, classes, arrivals, classOf, 64, *admit != tenancy.AdmitNone)
		co.Arrivals, co.AdmitTask = arrivals, adm.AdmitTask
		// One wait/service track per tenant, so each tenant's queueing story
		// reads as its own timeline row.
		track = func(ti int) string { return tracks[classOf[ti]] }
		report = func(tr *trace.Tracer, _ runners.Result, cr runners.ClusterRun) {
			st := tenancy.SummarizeClasses(classes, classOf, cr.Recs, adm.Outcomes())
			fmt.Fprintf(w, "ran %d %s tasks for %d tenants (%s admission, %s scheme); wrote %d spans to %s\n",
				len(cr.Recs), *benchName, *tenants, *admit, *scheme, tr.Len(), *out)
			byTrack := tr.SummaryByTrack()
			for c, s := range st {
				fmt.Fprintf(w, "  %s: offered %d, served %d, shed %d, evicted %d, p99 %.1f us\n",
					tracks[c], s.Offered, s.Completed, s.Shed, s.Evicted, s.P99/1e3)
				printCats(w, "    %-10s %6d spans, %10.1f us total\n", byTrack[tracks[c]])
			}
		}
	}

	res, cr := sc.RunCluster(defs, co, cfg)
	if err := cr.CheckConservation(); err != nil {
		return err
	}
	tr := trace.New()
	cr.AddServeSpans(tr, track)
	if cr.Scale != nil {
		addScaleSpans(tr, cr.Scale)
	}
	if err := writeTrace(tr, *out); err != nil {
		return err
	}
	report(tr, res, cr)
	return nil
}

// runPlain runs the batch closed-loop on one Pagoda system and traces the
// device and the runtime: one span per task per MTB plus the kernel spans.
func runPlain(w io.Writer, defs []workloads.TaskDef, benchName string, smms int, out string) error {
	cfg := pagoda.DefaultConfig()
	cfg.GPU.NumSMMs = smms
	sys := pagoda.New(cfg)
	tr := trace.New()
	sys.Device.Trace = tr
	sys.Runtime.Trace = tr
	end := sys.Run(func(h *pagoda.Host) {
		for i := range defs {
			td := &defs[i]
			h.Spawn(pagoda.Task{Threads: td.Threads, Blocks: td.Blocks, SharedMem: td.SharedMem,
				Sync: td.Sync, ArgBytes: td.ArgBytes, Kernel: func(tc *pagoda.TaskCtx) { td.Kernel(tc) }})
		}
		h.WaitAll()
	})
	if err := writeTrace(tr, out); err != nil {
		return err
	}
	fmt.Fprintf(w, "ran %d %s tasks in %.2f ms simulated; wrote %d spans to %s\n",
		sys.Runtime.Stats().Completed, benchName, end/1e6, tr.Len(), out)
	printCats(w, "  %-12s %6d spans, %10.1f us total\n", tr.Summary())
	return nil
}

// addScaleSpans adds the elastic fleet's lifecycle: one "fleet/scale" track,
// one span per phase per node. A node canceled during warm-up (ActiveAt 0
// despite a post-start provision) reads as warmup for its whole open extent,
// then drain; the initial nodes are active from t=0 with no warm-up.
func addScaleSpans(tr *trace.Tracer, o *autoscale.Outcome) {
	for i, sp := range o.Nodes {
		activeFrom := sp.ActiveAt
		if sp.ActiveAt == 0 && sp.ProvisionedAt > 0 {
			activeFrom = sp.ClosedAt // never promoted
		}
		if activeFrom > sp.ProvisionedAt {
			tr.Add(trace.Span{Name: trace.SpanName("warmup", int64(i)), Cat: "warmup",
				Track: "fleet/scale", Start: sp.ProvisionedAt, End: activeFrom})
		}
		if sp.ClosedAt > activeFrom {
			tr.Add(trace.Span{Name: trace.SpanName("active", int64(i)), Cat: "active",
				Track: "fleet/scale", Start: activeFrom, End: sp.ClosedAt})
		}
		if sp.RetiredAt > sp.ClosedAt {
			tr.Add(trace.Span{Name: trace.SpanName("drain", int64(i)), Cat: "drain",
				Track: "fleet/scale", Start: sp.ClosedAt, End: sp.RetiredAt})
		}
	}
}

// writeTrace writes tr to path as Chrome trace-event JSON.
func writeTrace(tr *trace.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printCats prints one catFmt line (category, span count, busy µs) per span
// category, in sorted category order.
func printCats(w io.Writer, catFmt string, per map[string]trace.CatStats) {
	cats := make([]string, 0, len(per))
	for cat := range per {
		cats = append(cats, cat)
	}
	slices.Sort(cats)
	for _, cat := range cats {
		fmt.Fprintf(w, catFmt, cat, per[cat].Count, per[cat].Busy/1e3)
	}
}
