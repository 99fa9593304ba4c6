package harness

import (
	"fmt"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/runners"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tenancy"
	"repro/internal/workloads"
)

// A scheme executes one prepared task set under one execution scheme. The
// runners package entry points (RunPagoda, RunHyperQ, ...) satisfy this
// directly; seqScheme adapts the config-free sequential baseline.
type scheme func([]workloads.TaskDef, runners.Config) runners.Result

func seqScheme(tasks []workloads.TaskDef, _ runners.Config) runners.Result {
	return runners.RunSequential(tasks)
}

// A sweep is an experiment's declarative cell enumeration. Each cell is one
// independent simulation — (workload options, scheme) — paired with the
// result slot it fills. Experiments enqueue every cell first, call run()
// once, then assemble rows and Values from the slots in declaration order,
// so the rendered report does not depend on cell execution order.
type sweep struct {
	parallel int
	jobs     []func()
}

func newSweep(p Params) *sweep { return &sweep{parallel: p.Parallel} }

// cell enqueues one (benchmark, options, scheme) simulation and returns the
// slot that holds its result after run().
func (s *sweep) cell(b workloads.Benchmark, opt workloads.Options, cfg runners.Config, run scheme) *runners.Result {
	return s.cellTasks(func() []workloads.TaskDef { return b.Make(opt) }, cfg, run)
}

// cellTasks is cell for sweeps that post-process the generated task set
// (e.g. Fig. 8's launch-geometry reshaping): mk builds the tasks inside the
// cell so generation cost parallelizes with everything else.
func (s *sweep) cellTasks(mk func() []workloads.TaskDef, cfg runners.Config, run scheme) *runners.Result {
	out := new(runners.Result)
	s.add(func() { *out = run(mk(), cfg) })
	return out
}

// add enqueues an arbitrary independent cell; the escape hatch for work that
// does not fit the TaskDef/Config or fleet shape (the hostcpu bake-off). The
// job must write only to state it owns.
func (s *sweep) add(job func()) { s.jobs = append(s.jobs, job) }

// run executes every enqueued cell and returns once all result slots are
// filled.
func (s *sweep) run() { runCells(s.parallel, s.jobs) }

// fleetSpec is one timed-arrival cell: a scheme's fleet serving a task set
// under an arrival stream. Every stateful piece (routing policy, per-node
// admission, scaler, tenant admission) is built inside the cell from a
// factory or a pure value, so cells stay independent at any parallelism.
type fleetSpec struct {
	sc  runners.Scheme
	cfg runners.Config
	mk  func() []workloads.TaskDef
	gen serve.Generator // arrivals; unused under a tenant mix
	slo sim.Time

	nodes   int   // fixed fleet size; 0 means one node
	classes []int // per-task class for class-affine routing
	policy  func() cluster.Policy
	admit   func() func(sim.Time, int) bool // per-node admission
	scaler  func() *autoscale.Config
	tenants *tenantMix
}

// tenantMix replaces the generator and per-node admission with tenant
// classes: their streams merge into the run's arrivals, and one fleet-wide
// class-aware Admission polices them.
type tenantMix struct {
	policy  string
	classes []tenancy.Class
	counts  []int // tasks per class
}

// fleetOut is one timed-arrival cell reduced to its summary: serving stats
// over the whole fleet, the final per-node ledgers, the scaler's outcome (nil
// on a fixed fleet), the run's elapsed virtual time, and the per-class stats
// under a tenant mix.
type fleetOut struct {
	st      serve.Stats
	views   []cluster.NodeView
	scale   *autoscale.Outcome
	elapsed sim.Time
	classes []tenancy.ClassStats
}

// fleet enqueues one timed-arrival simulation and returns the slot holding
// its summary after run(). Every cell runs Scheme.RunCluster and checks
// conservation before any number escapes; the records die with the cell.
func (s *sweep) fleet(f fleetSpec) *fleetOut {
	out := new(fleetOut)
	s.add(func() {
		tasks := f.mk()
		co := runners.ClusterOpenLoop{Classes: f.classes, Nodes: f.nodes, Admit: f.admit}
		if f.policy != nil {
			co.Policy = f.policy()
		}
		if f.scaler != nil {
			co.Scaler = f.scaler()
		}
		var adm *tenancy.Admission
		var classOf []int
		if tm := f.tenants; tm != nil {
			co.Arrivals, classOf = tenancy.Merge(tm.classes, tm.counts)
			adm = tenancy.NewAdmission(tm.policy, tm.classes, co.Arrivals, classOf,
				tenantAdmitLimit, tm.policy != tenancy.AdmitNone)
			co.AdmitTask = adm.AdmitTask
		} else {
			co.Arrivals = f.gen.Times(len(tasks))
		}
		res, cr := f.sc.RunCluster(tasks, co, f.cfg)
		if err := cr.CheckConservation(); err != nil {
			panic(fmt.Sprintf("harness: fleet leaked tasks: %v", err))
		}
		*out = fleetOut{st: serve.Summarize(cr.Recs, f.slo), views: cr.Views,
			scale: cr.Scale, elapsed: res.Elapsed}
		if adm != nil {
			out.classes = tenancy.SummarizeClasses(f.tenants.classes, classOf, cr.Recs, adm.Outcomes())
		}
	})
	return out
}

// imbalance is max routed / ideal share — 1.00 means a perfectly even split,
// 4.00 on a 4-node fleet means one node took everything.
func (o *fleetOut) imbalance() float64 {
	total, max := 0, 0
	for _, v := range o.views {
		total += v.Routed
		if v.Routed > max {
			max = v.Routed
		}
	}
	if total == 0 {
		return 1
	}
	return float64(max) * float64(len(o.views)) / float64(total)
}

// nodeSeconds prices the cell: the scaler's provision-to-retire ledger, or,
// on a fixed fleet, its size times the run's elapsed time.
func (o *fleetOut) nodeSeconds() float64 {
	if o.scale != nil {
		return o.scale.NodeSeconds()
	}
	return float64(len(o.views)) * o.elapsed / 1e9
}

func (o *fleetOut) nodeSecPerMTask() float64 {
	if o.st.Completed <= 0 {
		return 0
	}
	return o.nodeSeconds() / (float64(o.st.Completed) / 1e6)
}

func (o *fleetOut) outsInsPeak() (int, int, int) {
	if o.scale == nil {
		return 0, 0, len(o.views)
	}
	return o.scale.ScaleOuts, o.scale.ScaleIns, o.scale.Peak
}
