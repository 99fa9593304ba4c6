// Command bench is the repository's end-to-end performance benchmark. It
// drives the simulator's layers through their public entry points on one
// of four fixed workloads, checks every simulated output, and prints the
// workload's metrics as one JSON object on the last line of stdout:
//
//	go run . --workload closed_batch --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, and the spans and CPU profile of the run are
// written under --trace-dir. README.md lists the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"

	"repro/internal/runners"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	// scale multiplies every workload's task count, and minRounds is the
	// number of rounds per measured phase however short seconds is. The
	// command uses 1 and 3; the tests shrink both.
	scale     float64
	minRounds int
}

// report is the benchmark's result; the exported fields are the JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	digests []string // "<cell> <fnv64>" for every cell of the first round
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// cli parses the flags and runs the benchmark. It returns 2 for a bad flag.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := strings.Join(workloadNames(), ", ")
	wl := fs.String("workload", "", "workload to run: "+names)
	seed := fs.Int64("seed", 1, "seed for every input generator")
	seconds := fs.Int("seconds", 15, "host seconds of timed rounds to run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics, spans and CPU profile")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory for the traced run's files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "bench: "+format+"\n", a...)
		fmt.Fprintf(stderr, "bench: valid workloads: %s\n", names)
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected arguments %q", fs.Args())
	}
	if _, ok := lookup(*wl); !ok {
		return usage("unknown workload %q", *wl)
	}
	if *seconds < 0 {
		return usage("--seconds %d is negative", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return usage("--trace %d is neither 0 nor 1", *trace)
	}
	if *trace == 1 {
		if err := checkWritable(*traceDir); err != nil {
			return usage("trace directory %s is not writable: %v", *traceDir, err)
		}
	}
	cfg := config{workload: *wl, seed: *seed, seconds: float64(*seconds), trace: *trace == 1,
		traceDir: *traceDir, scale: 1, minRounds: 3}
	rep, err := run(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func lookup(name string) (workload, bool) {
	for _, w := range allWorkloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func checkWritable(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".probe")
	if err != nil {
		return err
	}
	f.Close()
	return os.Remove(f.Name())
}

// round is one pass over every cell of the workload.
type round struct {
	traced         bool
	wallNs, cpuNs  int64
	alloc, mallocs uint64
	gcs            uint32
	leaked         int       // goroutines left behind by the round's simulations
	cells          int       // cells attempted
	outs           []outcome // successful cells only
	ctr            *counters // traced rounds only
}

// bench holds one run's state.
type bench struct {
	cfg       config
	w         workload
	tr        *tracer
	root      int
	log       io.Writer
	attempted int
	failed    int
	want      map[string]uint64 // first round's digest per cell
}

func (b *bench) fail(err error) {
	b.failed++
	fmt.Fprintf(b.log, "FAIL %v\n", err)
}

// run verifies the workload's kernels, then alternates set-ups and timed
// rounds of its cells for cfg.seconds and reduces them to metrics. It logs
// progress lines to log; the caller prints the report.
func run(cfg config, log io.Writer) (*report, error) {
	w, ok := lookup(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	// One P: the engine runs exactly one simulation process at a time, so a
	// second P adds no parallelism. It only turns every baton handoff into a
	// wake-up of another thread, whose cost depends on what else runs on
	// that core. On a shared 2-CPU host that made round times vary ±20%
	// between runs; on one P they repeat within about 1%.
	runtime.GOMAXPROCS(1)
	b := &bench{cfg: cfg, w: w, tr: newTracer(), log: log, want: map[string]uint64{}}
	b.root = b.tr.begin(-1, w.name)
	n := max(int(float64(w.tasks)*cfg.scale+0.5), 12)
	nVerify := max(int(float64(w.verify)*cfg.scale+0.5), 1)
	fmt.Fprintf(log, "workload %s seed %d: %d tasks per cell, %d CPUs, %s\n",
		w.name, cfg.seed, n, runtime.NumCPU(), runtime.Version())

	// The verify cells run once, before the first round. Untraced rounds
	// give the end-to-end numbers. Each follows a set-up of its own, on a
	// collected heap, so the set-ups whose median is setup_s sample the
	// whole run. A traced run first spends a quarter of cfg.seconds on
	// untraced rounds, as the reference for the tracing overhead, then
	// cfg.seconds on traced rounds of the last set-up's cells under the CPU
	// profiler, which samples 100 times per CPU second.
	b.verify(nVerify)
	untracedFor := cfg.seconds
	if cfg.trace {
		untracedFor = cfg.seconds / 4
	}
	var cells []cell
	var setups []int
	var rounds []round
	timed := 0.0 // host seconds spent in rounds
	for len(rounds) < cfg.minRounds || timed < untracedFor {
		runtime.GC()
		id := b.tr.begin(b.root, "setup")
		cells = w.build(cfg.seed, n, false, b.tr, id)
		b.tr.end(id)
		setups = append(setups, id)
		rounds = append(rounds, b.round(cells, false))
		timed += float64(rounds[len(rounds)-1].wallNs) / 1e9
	}
	var profile bytes.Buffer
	if cfg.trace {
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return nil, err
		}
		for i, traced := 0, 0.0; i < cfg.minRounds || traced < cfg.seconds; i++ {
			rounds = append(rounds, b.round(cells, true))
			traced += float64(rounds[len(rounds)-1].wallNs) / 1e9
		}
		pprof.StopCPUProfile()
	}
	b.tr.end(b.root)

	rep := &report{Attempted: b.attempted, Failed: b.failed}
	for _, c := range cells {
		if d, ok := b.want[c.name]; ok {
			rep.digests = append(rep.digests, fmt.Sprintf("%s %016x", c.name, d))
		}
	}
	sort.Strings(rep.digests)
	for _, d := range rep.digests {
		fmt.Fprintf(log, "digest %s\n", d)
	}
	m := metrics{tr: b.tr, setups: setups, rounds: rounds}
	if !cfg.trace {
		rep.Metrics = m.endToEnd()
	} else {
		shares, samples, err := cpuShares(profile.Bytes())
		if err != nil {
			return nil, fmt.Errorf("decoding the CPU profile: %w", err)
		}
		rep.Metrics = m.perLayer(shares, samples)
		base := filepath.Join(cfg.traceDir, w.name)
		if err := os.WriteFile(base+".cpu.pprof", profile.Bytes(), 0o644); err != nil {
			return nil, err
		}
		if err := b.tr.write(base + ".spans.json"); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "wrote %s.spans.json and %s.cpu.pprof\n", base, base)
	}
	for name, v := range rep.Metrics {
		if v.Value != v.Value { // NaN: a metric had nothing to measure
			return nil, fmt.Errorf("metric %s has no value", name)
		}
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	return rep, nil
}

// verify runs the workload's cells on a small task set built with
// workloads.Options.Verify, so the kernels compute real results, and calls
// every completed task's Check. Each scheme gets freshly built tasks, so a
// result left by an earlier scheme cannot pass for a later one's.
func (b *bench) verify(n int) {
	parent := b.tr.begin(b.root, "verify")
	defer b.tr.end(parent)
	for _, key := range runners.SchemeKeys() {
		for _, c := range b.w.build(b.cfg.seed, n, true, b.tr, parent) {
			if c.scheme != key {
				continue
			}
			b.attempted++
			out, err := runCell(c, nil, b.tr, parent)
			if err == nil {
				err = checkTasks(c, out)
			}
			if err != nil {
				b.fail(fmt.Errorf("verify %w", err))
			}
		}
	}
}

func checkTasks(c cell, out outcome) error {
	for i, t := range c.tasks {
		if out.recs != nil && out.recs[i].Dropped {
			continue
		}
		if t.Check == nil {
			return fmt.Errorf("cell %s: task %d has no Check", c.name, i)
		}
		if err := t.Check(); err != nil {
			return fmt.Errorf("cell %s: task %d: %w", c.name, i, err)
		}
	}
	return nil
}

// round runs every cell once and records its host cost. Every round starts
// on a collected heap: untraced ones right after their set-up's collection.
func (b *bench) round(cells []cell, traced bool) round {
	r := round{traced: traced, cells: len(cells)}
	if traced {
		r.ctr = new(counters)
		runtime.GC()
	}
	goroutines := runtime.NumGoroutine()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, _ := usage()
	id := b.tr.begin(b.root, "round")
	for _, c := range cells {
		b.attempted++
		out, err := runCell(c, r.ctr, b.tr, id)
		if err == nil {
			err = b.same(c.name, out.digest)
		}
		if err != nil {
			b.fail(err)
			continue
		}
		r.outs = append(r.outs, out)
	}
	r.wallNs = b.tr.end(id)
	cpu1, rss := usage()
	r.cpuNs = cpu1 - cpu0
	runtime.ReadMemStats(&m1)
	r.alloc = m1.TotalAlloc - m0.TotalAlloc
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.gcs = m1.NumGC - m0.NumGC
	r.leaked = runtime.NumGoroutine() - goroutines
	kind := "untraced"
	if traced {
		kind = "traced"
	}
	fmt.Fprintf(b.log, "round %s %.3fs wall %.3fs CPU, %d tasks, %d goroutines left, max RSS %.0f MiB\n",
		kind, float64(r.wallNs)/1e9, float64(r.cpuNs)/1e9, completed(r.outs), r.leaked, rss)
	return r
}

// same checks that a cell simulated exactly what it did in the first round:
// every set-up builds the same inputs from the seed, and the counting shims
// only forward.
func (b *bench) same(cell string, digest uint64) error {
	want, ok := b.want[cell]
	if !ok {
		b.want[cell] = digest
		return nil
	}
	if digest != want {
		return fmt.Errorf("cell %s: digest %016x differs from the first round's %016x", cell, digest, want)
	}
	return nil
}

// usage returns the process's user plus system CPU time in nanoseconds and
// its peak resident set size in MiB.
func usage() (cpuNs int64, maxRSSMiB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), float64(ru.Maxrss) / 1024 // Linux reports KiB
}
