package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/runners"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tenancy"
	"repro/internal/workloads"
)

// sloCycles is the 1000 µs latency bound of every open-loop workload
// (1 cycle = 1 ns of virtual time).
const sloCycles = sim.Time(1000e3)

// workload is one fixed set of inputs the benchmark times. build is the
// workload's set-up: it generates the task sets and arrivals from the seed
// and returns one cell per (benchmark or config) × scheme simulation.
type workload struct {
	name   string
	tasks  int // tasks per cell in one timed round
	verify int // tasks per cell in a set-up's verify cells
	build  func(seed int64, n int, verify bool, tr *tracer, parent int) []cell
}

// allWorkloads lists the workloads in the order BENCHMARK.json declares
// them. The sizes make one round take about two seconds on one core of a
// 2-CPU x86 host.
func allWorkloads() []workload {
	return []workload{
		{"closed_batch", 384, 4, buildClosedBatch}, // 3DES verifies on real packets, hence few
		{"serve_poisson", 1200, 32, buildServePoisson},
		{"fleet_autoscale", 600, 32, buildFleetAutoscale},
		{"tenant_fleet", 3000, 32, buildTenantFleet},
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range allWorkloads() {
		names = append(names, w.name)
	}
	return names
}

// cell is one simulation of a workload under one scheme.
type cell struct {
	name   string // "<bench>/<scheme>" or "<scheme>"
	scheme string
	tasks  []workloads.TaskDef
	run    func(x *cellCtx) error
}

// outcome is what one cell produced, reduced to the numbers the metrics
// need once its checks passed.
type outcome struct {
	bench, scheme      string // bench is set for closed loops only
	offered, completed int
	digest             uint64
	res                runners.Result
	recs               []serve.Record // nil for closed loops
	st                 serve.Stats    // open loops: all records against sloCycles
	sloMet             int            // open loops: tasks done within their (class) SLO
	lagMax             sim.Time       // open loops: max Submit - arrival
	views              []cluster.NodeView
	scale              *autoscale.Outcome
	shed, evicted      int

	runNs, summarizeNs, conservationNs int64 // host time in each phase
}

// cellCtx is what a running cell sees: its span, the traced round's
// counters (nil when untraced) and the outcome it fills in.
type cellCtx struct {
	tr  *tracer
	id  int
	ctr *counters
	out outcome
}

// phase times fn as a child span of the cell and returns its duration in
// nanoseconds.
func (x *cellCtx) phase(name string, fn func()) int64 {
	return x.tr.span(x.id, name, fn)
}

// runCell executes one cell, turning a panic on the calling goroutine into
// a cell failure. A panic inside a simulation process ends the program.
func runCell(c cell, ctr *counters, tr *tracer, parent int) (out outcome, err error) {
	x := &cellCtx{tr: tr, ctr: ctr, out: outcome{scheme: c.scheme}}
	x.id = tr.begin(parent, c.name)
	defer func() {
		tr.end(x.id)
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
		if err != nil {
			err = fmt.Errorf("cell %s: %w", c.name, err)
		}
	}()
	if err := c.run(x); err != nil {
		return outcome{}, err
	}
	return x.out, nil
}

func mustBench(name string) workloads.Benchmark {
	b, err := workloads.ByName(name)
	if err != nil {
		panic(err) // the names below are the package's own
	}
	return b
}

func makeTasks(tr *tracer, parent int, b workloads.Benchmark, opt workloads.Options) []workloads.TaskDef {
	var ts []workloads.TaskDef
	tr.span(parent, "make", func() { ts = b.Make(opt) })
	return ts
}

// closedBenches are the Table 3 benchmarks of the paper's Fig. 5.
var closedBenches = []string{"MB", "FB", "BF", "CONV", "DCT", "MM", "SLUD", "3DES"}

// buildClosedBatch is Fig. 5's saturated closed loop: every benchmark's
// whole task set is handed to each scheme at once, 128 threads per task,
// copies on, two spawner threads.
func buildClosedBatch(seed int64, n int, verify bool, tr *tracer, parent int) []cell {
	cfg := runners.DefaultConfig()
	var cells []cell
	for _, name := range closedBenches {
		b := mustBench(name)
		opt := workloads.Options{Tasks: n, Threads: 128, Seed: seed, UseShared: b.SupportsShared, Verify: verify}
		if verify && name == "3DES" {
			// Verifying encrypts real packets; a fixed 4 KiB packet keeps
			// its cost independent of the seed's 2–64 KiB size draws.
			opt.InputSize = 4 << 10
		}
		tasks := makeTasks(tr, parent, b, opt)
		for _, sc := range runners.Schemes() {
			if name == "SLUD" && sc.Key == "gemtc" {
				continue // the paper has no GeMTC SLUD
			}
			cells = append(cells, cell{name: name + "/" + sc.Key, scheme: sc.Key, tasks: tasks,
				run: func(x *cellCtx) error {
					ts := x.ctr.tasks(tasks)
					var res runners.Result
					x.out.runNs += x.phase("run", func() { res = sc.Run(ts, cfg) })
					if res.Tasks != len(ts) {
						return fmt.Errorf("completed %d of %d tasks", res.Tasks, len(ts))
					}
					x.out.bench, x.out.res = name, res
					x.out.offered, x.out.completed = len(ts), res.Tasks
					x.out.digest = digestResult(res)
					return nil
				}})
		}
	}
	return cells
}

// buildServePoisson is the single-device open loop: Mandelbrot tasks under
// Poisson arrivals at 384k tasks/s, a 64-deep bounded admission queue.
func buildServePoisson(seed int64, n int, verify bool, tr *tracer, parent int) []cell {
	tasks := makeTasks(tr, parent, mustBench("MB"), workloads.Options{Tasks: n, Threads: 128, Seed: seed, Verify: verify})
	var arrivals []sim.Time
	tr.span(parent, "arrivals", func() { arrivals = serve.Poisson{Rate: 384e3, Seed: seed}.Times(n) })
	cfg := runners.DefaultConfig()
	var cells []cell
	for _, sc := range runners.Schemes() {
		cells = append(cells, cell{name: sc.Key, scheme: sc.Key, tasks: tasks,
			run: func(x *cellCtx) error {
				ts := x.ctr.tasks(tasks)
				ol := runners.OpenLoop{Arrivals: arrivals, Admit: x.ctr.admit(serve.BoundedQueue{Limit: 64}.Admit)}
				var res runners.Result
				var recs []serve.Record
				x.out.runNs += x.phase("run", func() { res, recs = sc.RunOpenLoop(ts, ol, cfg) })
				return x.served(res, recs, arrivals)
			}})
	}
	return cells
}

// buildFleetAutoscale replays a recorded diurnal trace (mean 1.28M tasks/s,
// swing 0.6, 400 µs period) on an elastic 8..32 node fleet: round-robin
// routing, a 32-deep queue per node. The scaler is the predictive one with
// the default tuning; over a sub-millisecond horizon the reactive one never
// leaves its 8-node floor. The lifecycle is cluster_autoscale's
// short-horizon one (50 µs ticks, 200 µs warm-up, 100 µs cooldown), so
// every cell scales out to 32 nodes and back in.
func buildFleetAutoscale(seed int64, n int, verify bool, tr *tracer, parent int) []cell {
	tasks := makeTasks(tr, parent, mustBench("MB"), workloads.Options{Tasks: n, Threads: 128, Seed: seed, Verify: verify})
	var recorded []sim.Time
	tr.span(parent, "arrivals", func() {
		recorded = serve.Diurnal{MeanRate: 1.28e6, Swing: 0.6, Period: 400_000, Seed: seed}.Times(n)
	})
	replay := serve.Trace{Label: "diurnal-replay", At: recorded}
	tu := autoscale.DefaultTuning()
	tu.SLO = sloCycles
	mkScaler, err := autoscale.NewPolicy("predictive", tu)
	if err != nil {
		panic(err)
	}
	mkRoute, err := cluster.NewPolicy("rr", seed)
	if err != nil {
		panic(err)
	}
	cfg := runners.DefaultConfig()
	var cells []cell
	for _, sc := range runners.Schemes() {
		cells = append(cells, cell{name: sc.Key, scheme: sc.Key, tasks: tasks,
			run: func(x *cellCtx) error {
				ts := x.ctr.tasks(tasks)
				var arrivals []sim.Time
				x.phase("arrivals", func() { arrivals = replay.Times(n) })
				co := runners.ClusterOpenLoop{
					Arrivals: arrivals,
					Policy:   x.ctr.policy(mkRoute()),
					Admit: func() func(sim.Time, int) bool {
						return x.ctr.admit(serve.BoundedQueue{Limit: 32}.Admit)
					},
					Scaler: &autoscale.Config{Min: 8, Max: 32, Policy: x.ctr.scaler(mkScaler),
						Interval: 50_000, Warmup: 200_000, Cooldown: 100_000},
				}
				var res runners.Result
				var cr runners.ClusterRun
				x.out.runNs += x.phase("run", func() { res, cr = sc.RunCluster(ts, co, cfg) })
				if err := x.conserved(cr); err != nil {
					return err
				}
				if cr.Scale == nil {
					return fmt.Errorf("elastic fleet reported no scale outcome")
				}
				x.out.scale = cr.Scale
				return x.served(res, cr.Recs, arrivals)
			}})
	}
	return cells
}

// tenantRate is each tenant class's contracted rate, tasks/s; the standard
// class offers ten times its contract.
const tenantRate = 768e3

// buildTenantFleet serves three tenant classes of transformer-layer tasks
// on a fixed 4-node fleet with join-shortest-queue routing and fleet-wide
// weighted-fair admission with contract policing (backlog limit 256).
func buildTenantFleet(seed int64, n int, verify bool, tr *tracer, parent int) []cell {
	const nclass = 3
	counts := make([]int, nclass)
	for c := range counts {
		counts[c] = n / nclass
		if c < n%nclass {
			counts[c]++
		}
	}
	horizon := sim.Time(float64(counts[0]) / tenantRate * 1e9)
	classes := tenancy.DefaultClasses(nclass, tenantRate, sloCycles, horizon, seed, 1)
	var arrivals []sim.Time
	var classOf []int
	tr.span(parent, "merge", func() { arrivals, classOf = tenancy.Merge(classes, counts) })
	tasks := makeTasks(tr, parent, mustBench("XFMR"), workloads.Options{Tasks: len(arrivals), Seed: seed, Verify: verify})
	mkRoute, err := cluster.NewPolicy("jsq", seed)
	if err != nil {
		panic(err)
	}
	cfg := runners.DefaultConfig()
	var cells []cell
	for _, sc := range runners.Schemes() {
		cells = append(cells, cell{name: sc.Key, scheme: sc.Key, tasks: tasks,
			run: func(x *cellCtx) error {
				ts := x.ctr.tasks(tasks)
				adm := tenancy.NewAdmission(tenancy.AdmitWFQ, classes, arrivals, classOf, 256, true)
				co := runners.ClusterOpenLoop{
					Arrivals:  arrivals,
					Classes:   classOf,
					Nodes:     4,
					Policy:    x.ctr.policy(mkRoute()),
					AdmitTask: x.ctr.admitTask(adm.AdmitTask),
				}
				var res runners.Result
				var cr runners.ClusterRun
				x.out.runNs += x.phase("run", func() { res, cr = sc.RunCluster(ts, co, cfg) })
				if err := x.conserved(cr); err != nil {
					return err
				}
				outcomes := adm.Outcomes()
				for ti, o := range outcomes {
					switch o {
					case tenancy.Shed:
						x.out.shed++
					case tenancy.Evicted:
						x.out.evicted++
					case tenancy.Pending:
						return fmt.Errorf("task %d was never presented to admission", ti)
					}
					if (o == tenancy.Served) == cr.Recs[ti].Dropped {
						return fmt.Errorf("task %d: admission said %v but dropped=%v", ti, o, cr.Recs[ti].Dropped)
					}
				}
				var perClass []tenancy.ClassStats
				x.out.summarizeNs += x.phase("summarize", func() {
					perClass = tenancy.SummarizeClasses(classes, classOf, cr.Recs, outcomes)
				})
				if err := x.served(res, cr.Recs, arrivals); err != nil {
					return err
				}
				x.out.sloMet = 0 // judged against each class's own SLO instead
				for _, cs := range perClass {
					x.out.sloMet += cs.SLOMet
				}
				return nil
			}})
	}
	return cells
}

// conserved checks the fleet's per-node ledgers.
func (x *cellCtx) conserved(cr runners.ClusterRun) error {
	var err error
	x.out.conservationNs += x.phase("conservation", func() { err = cr.CheckConservation() })
	x.out.views = cr.Views
	return err
}

// served checks an open-loop cell's records and fills the outcome, judging
// every task against sloCycles.
func (x *cellCtx) served(res runners.Result, recs []serve.Record, arrivals []sim.Time) error {
	if len(recs) != len(arrivals) {
		return fmt.Errorf("%d records for %d arrivals", len(recs), len(arrivals))
	}
	for i, r := range recs {
		if lag := r.Submit - arrivals[i]; lag > x.out.lagMax {
			x.out.lagMax = lag
		}
		if !r.Dropped && !(r.Submit <= r.Start && r.Start <= r.Done) {
			return fmt.Errorf("record %d out of order: submit %v start %v done %v", i, r.Submit, r.Start, r.Done)
		}
	}
	var st serve.Stats
	x.out.summarizeNs += x.phase("summarize", func() { st = serve.Summarize(recs, sloCycles) })
	if st.Completed+st.Dropped != len(recs) || st.Completed != res.Tasks {
		return fmt.Errorf("offered %d, completed %d + dropped %d, runner reported %d",
			len(recs), st.Completed, st.Dropped, res.Tasks)
	}
	x.out.res, x.out.recs, x.out.st = res, recs, st
	x.out.offered, x.out.completed = len(recs), st.Completed
	x.out.sloMet = st.SLOMet
	x.out.digest = digestRecords(recs)
	return nil
}

// digestRecords is an FNV-64a hash of every record's (Submit, Start, Done,
// Dropped): two runs simulated the same thing exactly when it matches.
func digestRecords(recs []serve.Record) uint64 {
	h := fnv.New64a()
	var b [25]byte
	for _, r := range recs {
		binary.LittleEndian.PutUint64(b[0:], math.Float64bits(r.Submit))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(r.Start))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(r.Done))
		b[24] = 0
		if r.Dropped {
			b[24] = 1
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// digestResult hashes a closed loop's Result, which is all the runner
// exposes of it.
func digestResult(r runners.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range []float64{r.Elapsed, r.AvgLatency, r.MaxLatency, r.P50Latency,
		r.P90Latency, r.P99Latency, r.Occupancy, r.IssueUtil, float64(r.Tasks)} {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}
