package harness

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/runners"
	"repro/internal/workloads"
)

// Params scales an experiment. The paper uses Tasks=32768 (SLUD ~273K); the
// default here keeps a full sweep tractable on a laptop while preserving
// every shape — pass -tasks 32768 to pagodabench for paper scale.
type Params struct {
	Tasks int
	SMMs  int
	Seed  int64

	// Parallel is the number of experiment cells (independent simulations)
	// run concurrently: 0 uses one worker per CPU, 1 runs cells sequentially
	// in declaration order. Output is byte-identical at every width; see
	// sched.go.
	Parallel int

	// SLOUs is the p99 latency bound for the serve_* and cluster_*
	// experiments in microseconds; 0 means the 1000us default. Other
	// experiments ignore it.
	SLOUs float64

	// Nodes is the fleet size for the cluster_* experiments; 0 means 4.
	// cluster_scaling sweeps its own node-count axis and ignores it.
	Nodes int

	// Policy names the cluster routing policy (see cluster.PolicyNames);
	// empty means round-robin. cluster_policy sweeps every policy and
	// ignores it.
	Policy string

	// Schemes restricts the GPU schemes the serve_* and cluster_*
	// experiments sweep (keys from runners.SchemeKeys()); empty means all.
	// The figure experiments have fixed per-scheme columns and ignore it.
	Schemes []string

	// Oversub overrides the zorua scheme's oversubscription factor
	// (uniform across all four resources); 0 means the scheme default,
	// 1 means physical admission. Other schemes ignore it.
	Oversub float64

	// Tenants is the number of tenant classes for tenant_qos; 0 means 3.
	Tenants int

	// MinNodes and MaxNodes bound the elastic fleet in cluster_autoscale
	// (0 means 2 and 8). The trace-replay section pins its own bounds so
	// the node-seconds headline stays comparable across invocations.
	MinNodes int
	MaxNodes int

	// Autoscale restricts cluster_autoscale to one scaling policy (see
	// autoscale.PolicyNames); empty sweeps all of them.
	Autoscale string

	// Misbehave is the index of the tenant class that offers 10x its
	// contracted rate in tenant_qos (1 is the standard class); -1 makes
	// every class honest.
	Misbehave int
}

func (p Params) fill() Params {
	if p.Tasks <= 0 {
		p.Tasks = 2048
	}
	if p.SMMs <= 0 {
		p.SMMs = 24
	}
	if p.Nodes <= 0 {
		p.Nodes = 4
	}
	if p.Policy == "" {
		p.Policy = "rr"
	}
	if p.Tenants <= 0 {
		p.Tenants = 3
	}
	if p.MinNodes <= 0 {
		p.MinNodes = 2
	}
	if p.MaxNodes <= 0 {
		p.MaxNodes = 8
	}
	return p
}

func (p Params) runnerCfg() runners.Config {
	cfg := runners.DefaultConfig()
	cfg.SMMs = p.SMMs
	if p.Oversub > 0 {
		cfg.Oversub = gpu.UniformOversub(p.Oversub)
	}
	return cfg
}

// gpuSchemes returns the GPU schemes a serving/cluster sweep covers: the
// full runners registry, or the subset named by p.Schemes, in registry
// order. Deriving the list here (instead of hard-coding scheme names per
// experiment) is what lets a newly registered scheme appear in every
// sweep automatically.
func (p Params) gpuSchemes() []runners.Scheme {
	all := runners.Schemes()
	if len(p.Schemes) == 0 {
		return all
	}
	want := make(map[string]bool, len(p.Schemes))
	for _, k := range p.Schemes {
		want[k] = true
	}
	var out []runners.Scheme
	for _, s := range all {
		if want[s.Key] {
			out = append(out, s)
		}
	}
	return out
}

// experiments is every regenerable artifact in report order: the paper's
// tables and figures, the §6.2 CPU-scheme bake-off, and the timed-arrival
// sweeps (serving, tenancy, oversubscription, fleets).
var experiments = []struct {
	id  string
	run func(Params) *Report
}{
	{"table3", Table3},
	{"fig5", Fig5},
	{"fig6", Fig6},
	{"fig7", Fig7},
	{"fig8", Fig8},
	{"fig9", Fig9},
	{"fig10", Fig10},
	{"fig11", Fig11},
	{"table5", Table5},
	{"cpuschemes", CPUSchemes},
	{"serve_latency", ServeLatency},
	{"serve_capacity", ServeCapacity},
	{"tenant_qos", TenantQoS},
	{"oversub_sweep", OversubSweep},
	{"cluster_scaling", ClusterScaling},
	{"cluster_policy", ClusterPolicy},
	{"cluster_autoscale", ClusterAutoscale},
}

// Experiments lists every experiment ID in report order.
func Experiments() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// Run regenerates one experiment by ID.
func Run(id string, p Params) (*Report, error) {
	for _, e := range experiments {
		if e.id == id {
			return e.run(p), nil
		}
	}
	return nil, fmt.Errorf("harness: unknown experiment %q (have %v)", id, Experiments())
}

// fig5Benchmarks are the Fig. 5 bars, in paper order (SLUD scaled by the
// same factor the paper uses: 273K/32K ≈ 8.5x the task count).
var fig5Benchmarks = []string{"MB", "FB", "BF", "CONV", "DCT", "MM", "SLUD", "3DES", "MPE"}

func taskCount(p Params, bench string) int {
	if bench == "SLUD" {
		return p.Tasks * 273 / 32
	}
	return p.Tasks
}

// fig5Abbrev shortens a GPU scheme key for the ratio column headers.
var fig5Abbrev = map[string]string{"hyperq": "HQ", "gemtc": "GeMTC", "pagoda": "Pg", "zorua": "Zorua"}

// Fig5 regenerates the overall performance comparison: speedup over
// sequential CPU for PThreads(20-core) and every registered GPU scheme, 128
// threads per task, copy+compute time. The GPU columns are derived from the
// runners scheme registry so a new scheme gets a bar automatically.
func Fig5(p Params) *Report {
	p = p.fill()
	schemes := runners.Schemes()
	header := []string{"Benchmark", "PThreads"}
	for _, sc := range schemes {
		header = append(header, sc.Display)
	}
	for _, sc := range schemes {
		if sc.Key != "pagoda" {
			header = append(header, "Pagoda/"+fig5Abbrev[sc.Key])
		}
	}
	header = append(header, "Pagoda/PThr", "HQ p99(us)", "Pagoda p99(us)")
	r := newReport("fig5", fmt.Sprintf("Overall performance (speedup over 1-core CPU), %d tasks, 128 threads/task", p.Tasks),
		header...)

	type fig5Cells struct {
		name    string
		seq, pt *runners.Result
		gpu     []*runners.Result // parallel to schemes; nil where unsupported
	}
	s := newSweep(p)
	var cells []fig5Cells
	for _, name := range fig5Benchmarks {
		b, _ := workloads.ByName(name)
		opt := workloads.Options{Tasks: taskCount(p, name), Threads: 128, Seed: p.Seed, UseShared: b.SupportsShared}
		cfg := p.runnerCfg()
		c := fig5Cells{
			name: name,
			seq:  s.cell(b, opt, cfg, seqScheme),
			pt:   s.cell(b, opt, cfg, runners.RunPThreads),
		}
		for _, sc := range schemes {
			if name == "SLUD" && sc.Key == "gemtc" { // "We could not implement SLUD in GeMTC"
				c.gpu = append(c.gpu, nil)
				continue
			}
			c.gpu = append(c.gpu, s.cell(b, opt, cfg, sc.Run))
		}
		cells = append(cells, c)
	}
	s.run()

	var vsPT []float64
	vsGPU := make(map[string][]float64) // pagoda speedup ratio series per scheme key
	for _, c := range cells {
		name := c.name
		seq := *c.seq
		ptS := seq.Elapsed / c.pt.Elapsed
		speedup := make(map[string]float64)
		var pg *runners.Result
		for i, sc := range schemes {
			if c.gpu[i] == nil {
				continue
			}
			speedup[sc.Key] = seq.Elapsed / c.gpu[i].Elapsed
			if sc.Key == "pagoda" {
				pg = c.gpu[i]
			}
		}
		pgS := speedup["pagoda"]
		row := []string{name, f2(ptS)}
		for _, sc := range schemes {
			row = append(row, cond(speedup[sc.Key] > 0, f2(speedup[sc.Key]), "n/a"))
		}
		for _, sc := range schemes {
			if sc.Key == "pagoda" {
				continue
			}
			row = append(row, cond(speedup[sc.Key] > 0, f2(pgS/speedup[sc.Key]), "n/a"))
		}
		var hq *runners.Result
		for i, sc := range schemes {
			if sc.Key == "hyperq" {
				hq = c.gpu[i]
			}
		}
		row = append(row, f2(pgS/ptS), us(hq.P99Latency), us(pg.P99Latency))
		r.addRow(row...)

		r.set(name+"/pthreads", ptS)
		// Exact per-task tail latency (nearest-rank over the closed-loop run's
		// latency vector) — the narrow-task story the speedup columns hide.
		r.set(name+"/p99us/pthreads", c.pt.P99Latency/1e3)
		for i, sc := range schemes {
			if c.gpu[i] == nil {
				continue
			}
			r.set(name+"/"+sc.Key, speedup[sc.Key])
			r.set(name+"/p99us/"+sc.Key, c.gpu[i].P99Latency/1e3)
			if sc.Key != "pagoda" {
				vsGPU[sc.Key] = append(vsGPU[sc.Key], pgS/speedup[sc.Key])
			}
		}
		vsPT = append(vsPT, pgS/ptS)
	}
	r.set("geomean/pagoda-vs-pthreads", geomean(vsPT))
	for _, sc := range schemes {
		if sc.Key != "pagoda" {
			r.set("geomean/pagoda-vs-"+sc.Key, geomean(vsGPU[sc.Key]))
		}
	}
	r.note("geomean Pagoda speedup: %.2fx over PThreads (paper: 5.70x), %.2fx over CUDA-HyperQ (paper: 1.51x), %.2fx over GeMTC (paper: 1.69x), %.2fx over Zorua",
		geomean(vsPT), geomean(vsGPU["hyperq"]), geomean(vsGPU["gemtc"]), geomean(vsGPU["zorua"]))
	return r
}

// Fig6 regenerates weak scaling with the number of tasks for MB, CONV, DCT,
// 3DES and MPE (execution time in ms; 128 threads per task).
func Fig6(p Params) *Report {
	p = p.fill()
	counts := []int{64, 128, 256, 512, 1024, 2048, 4096, 8192}
	var kept []int
	for _, c := range counts {
		if c <= p.Tasks*4 {
			kept = append(kept, c)
		}
	}
	r := newReport("fig6", "Weak scaling with number of tasks (execution time, ms)",
		append([]string{"Benchmark", "Scheme"}, intsToStrings(kept)...)...)
	schemes := runners.Schemes()
	type fig6Cells struct {
		name string
		n    int
		by   []*runners.Result // parallel to schemes
	}
	s := newSweep(p)
	var cells []fig6Cells
	for _, name := range []string{"MB", "CONV", "DCT", "3DES", "MPE"} {
		b, _ := workloads.ByName(name)
		cfg := p.runnerCfg()
		for _, n := range kept {
			opt := workloads.Options{Tasks: n, Threads: 128, Seed: p.Seed}
			c := fig6Cells{name: name, n: n}
			for _, sc := range schemes {
				c.by = append(c.by, s.cell(b, opt, cfg, sc.Run))
			}
			cells = append(cells, c)
		}
	}
	s.run()

	rows := map[string][]string{}
	for _, c := range cells {
		for i, sc := range schemes {
			rows[sc.Key] = append(rows[sc.Key], ms(c.by[i].Elapsed))
			r.set(fmt.Sprintf("%s/%s/%d", c.name, sc.Key, c.n), c.by[i].Elapsed)
		}
		if len(rows["pagoda"]) == len(kept) { // benchmark complete: emit its rows
			for _, sc := range schemes {
				r.addRow(append([]string{c.name, sc.Display}, rows[sc.Key]...)...)
			}
			rows = map[string][]string{}
		}
	}
	r.note("paper: Pagoda versions run faster than HyperQ and GeMTC beyond 512 tasks")
	return r
}

// Fig7 regenerates the compute-time comparison across thread counts per
// task (no data copies, no shared memory; work per task constant).
func Fig7(p Params) *Report {
	p = p.fill()
	threadCounts := []int{32, 64, 128, 256, 512}
	r := newReport("fig7", fmt.Sprintf("Compute time vs threads per task (%d tasks; ms)", p.Tasks),
		append([]string{"Benchmark", "Scheme"}, intsToStrings(threadCounts)...)...)
	cfg := p.runnerCfg()
	cfg.CopyData = false
	schemes := runners.Schemes()

	type fig7Cells struct {
		name string
		th   int
		by   []*runners.Result // parallel to schemes
	}
	s := newSweep(p)
	var cells []fig7Cells
	for _, name := range []string{"MB", "FB", "BF", "CONV", "DCT", "MM", "3DES", "MPE"} {
		b, _ := workloads.ByName(name)
		for _, th := range threadCounts {
			opt := workloads.Options{Tasks: p.Tasks, Threads: th, Seed: p.Seed}
			c := fig7Cells{name: name, th: th}
			for _, sc := range schemes {
				c.by = append(c.by, s.cell(b, opt, cfg, sc.Run))
			}
			cells = append(cells, c)
		}
	}
	s.run()

	pgIdx := 0
	for i, sc := range schemes {
		if sc.Key == "pagoda" {
			pgIdx = i
		}
	}
	vs128 := make(map[string][]float64) // pagoda ratio series at 128 threads per scheme key
	var p99vsHQ128 []float64
	rows := map[string][]string{}
	for _, c := range cells {
		pg := c.by[pgIdx]
		for i, sc := range schemes {
			rows[sc.Key] = append(rows[sc.Key], ms(c.by[i].Elapsed))
			r.set(fmt.Sprintf("%s/%s/%d", c.name, sc.Key, c.th), c.by[i].Elapsed)
			// Exact per-task p99 alongside each makespan point (us; nearest-rank
			// order statistics from the runs' latency vectors).
			r.set(fmt.Sprintf("%s/p99us/%s/%d", c.name, sc.Key, c.th), c.by[i].P99Latency/1e3)
			if c.th == 128 && sc.Key != "pagoda" {
				vs128[sc.Key] = append(vs128[sc.Key], c.by[i].Elapsed/pg.Elapsed)
				if sc.Key == "hyperq" {
					p99vsHQ128 = append(p99vsHQ128, c.by[i].P99Latency/pg.P99Latency)
				}
			}
		}
		if len(rows["pagoda"]) == len(threadCounts) { // benchmark complete
			for _, sc := range schemes {
				r.addRow(append([]string{c.name, sc.Display}, rows[sc.Key]...)...)
			}
			rows = map[string][]string{}
		}
	}
	for _, sc := range schemes {
		if sc.Key != "pagoda" {
			r.set("geomean128/pagoda-vs-"+sc.Key, geomean(vs128[sc.Key]))
		}
	}
	r.set("geomean128/p99/pagoda-vs-hyperq", geomean(p99vsHQ128))
	r.note("geomean at 128 threads: Pagoda %.2fx over HyperQ (paper: 2.29x), %.2fx over GeMTC (paper: 2.26x), %.2fx over Zorua",
		geomean(vs128["hyperq"]), geomean(vs128["gemtc"]), geomean(vs128["zorua"]))
	r.note("geomean p99 latency at 128 threads: HyperQ %.2fx Pagoda's (per-scheme p99 series under <bench>/p99us/<scheme>/<threads>)",
		geomean(p99vsHQ128))
	return r
}

func cond(b bool, t, f string) string {
	if b {
		return t
	}
	return f
}

func intsToStrings(vs []int) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fmt.Sprint(v)
	}
	return out
}
