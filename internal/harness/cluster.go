package harness

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/runners"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// clusterTaskCap bounds the fleet experiments' task count: each cell
// simulates up to 8 devices on one engine, so paper-scale task counts would
// multiply the sweep's wall-clock without changing any percentile's meaning.
const clusterTaskCap = 256

func clusterTaskCount(p Params) int {
	if p.Tasks > clusterTaskCap {
		return clusterTaskCap
	}
	return p.Tasks
}

func (p Params) clusterPolicy() func() cluster.Policy {
	mk, err := cluster.NewPolicy(p.Policy, p.Seed)
	if err != nil {
		panic(err)
	}
	return mk
}

// ClusterScaling regenerates the fleet-scaling sweep: p99 and SLO-bounded
// capacity versus node count (1 to 8) for each GPU scheme, offered load
// scaled with the fleet (each ladder rung is a per-node rate; the fleet sees
// rung x nodes). The headline is whether capacity scales linearly with
// nodes — it does when the dispatcher, not a device, is the only shared
// component — and the 1-node column ties the fleet back to the single-device
// serve_capacity numbers.
func ClusterScaling(p Params) *Report {
	p = p.fill()
	n := clusterTaskCount(p)
	slo := p.sloCycles()
	nodeCounts := []int{1, 2, 4, 8}
	perNode := []float64{4e3, 16e3, 64e3}

	header := []string{"Scheme", "Nodes"}
	for _, rate := range perNode {
		header = append(header, fmt.Sprintf("p99@%.0f/s/node(us)", rate))
	}
	header = append(header, "cap(/s)", "cap/node(/s)", "imbalance")
	r := newReport("cluster_scaling",
		fmt.Sprintf("Fleet scaling (MB, %d tasks, Poisson arrivals, policy %s, p99 SLO %.0fus, * = SLO missed)",
			n, p.Policy, slo/1e3),
		header...)
	r.setSeed(p.Seed)

	mk := mbTasks(n, p.Seed)
	cfg := p.runnerCfg()

	s := newSweep(p)
	schemes := p.gpuSchemes()
	var cells []*fleetOut
	for _, sc := range schemes {
		for _, nodes := range nodeCounts {
			for _, rate := range perNode {
				gen := serve.Poisson{Rate: rate * float64(nodes), Seed: p.Seed}
				cells = append(cells, s.fleet(fleetSpec{sc: sc, cfg: cfg,
					mk: mk, gen: gen, slo: slo, nodes: nodes, policy: p.clusterPolicy()}))
			}
		}
	}
	s.run()

	i := 0
	for _, sc := range schemes {
		for _, nodes := range nodeCounts {
			row := []string{sc.Display, fmt.Sprint(nodes)}
			offered := make([]float64, len(perNode))
			ok := make([]bool, len(perNode))
			var top *fleetOut
			for j, rate := range perNode {
				c := cells[i]
				i++
				st := c.st
				offered[j] = rate * float64(nodes)
				ok[j] = st.SLOSatisfied()
				row = append(row, cond(ok[j], us(st.P99), us(st.P99)+"*"))
				key := fmt.Sprintf("%s/%d", sc.Key, nodes)
				r.set(fmt.Sprintf("%s/p99us/%.0f", key, rate), st.P99/1e3)
				r.set(fmt.Sprintf("%s/goodput/%.0f", key, rate), st.Goodput)
				top = c
			}
			max := serve.MaxSustainable(offered, ok)
			key := fmt.Sprintf("%s/%d", sc.Key, nodes)
			r.set(key+"/max-rate", max)
			r.set(key+"/max-rate-node", max/float64(nodes))
			r.set(key+"/imbalance", top.imbalance())
			row = append(row,
				cond(max > 0, fmt.Sprintf("%.0f", max), "none"),
				cond(max > 0, fmt.Sprintf("%.0f", max/float64(nodes)), "none"),
				f2(top.imbalance()))
			r.addRow(row...)
		}
	}
	r.note("cap is the highest offered rate (per-node rung x nodes) whose whole prefix met the %.0fus p99 SLO with no drops; cap/node flat across fleet sizes = linear scaling", slo/1e3)
	r.note("imbalance = max node share / ideal share at the top rung (1.00 = even split); seed %d threads every arrival stream", p.Seed)
	return r
}

// clusterClassBenches are the task classes of the policy comparison: four
// distinct narrow-task kernels interleaved into one arrival stream, so
// class-affine routing has real structure to exploit.
var clusterClassBenches = []string{"MB", "CONV", "DCT", "3DES"}

// makeMixedTasks interleaves the class benchmarks into one task list; task i
// belongs to class i % len(clusterClassBenches).
func makeMixedTasks(n int, seed int64) []workloads.TaskDef {
	k := len(clusterClassBenches)
	per := make([][]workloads.TaskDef, k)
	for bi, name := range clusterClassBenches {
		b, err := workloads.ByName(name)
		if err != nil {
			panic(err)
		}
		cnt := (n - bi + k - 1) / k // tasks i < n with i % k == bi
		per[bi] = b.Make(workloads.Options{Tasks: cnt, Threads: 128, Seed: seed})
	}
	out := make([]workloads.TaskDef, n)
	idx := make([]int, k)
	for i := range out {
		bi := i % k
		out[i] = per[bi][idx[bi]]
		idx[bi]++
	}
	return out
}

// ClusterPolicy regenerates the dispatch-policy comparison: every routing
// policy crossed with Poisson and bursty arrivals for each GPU scheme, on a
// fixed fleet serving a mixed-class workload under bounded per-node
// admission. Load-aware policies should hold tails and goodput under bursts
// where round-robin cannot see the pile-up; affinity trades balance for
// class locality and the imbalance column prices that trade.
func ClusterPolicy(p Params) *Report {
	p = p.fill()
	n := clusterTaskCount(p)
	slo := p.sloCycles()
	nodes := p.Nodes

	rate := 16e3 * float64(nodes)
	arrivalKinds := []struct {
		key string
		gen serve.Generator
	}{
		{"poisson", serve.Poisson{Rate: rate, Seed: p.Seed}},
		{"bursty", serve.Bursty{PeakRate: 512e3, Burst: 16, Gap: 200_000}},
	}
	classes := make([]int, n)
	for i := range classes {
		classes[i] = i % len(clusterClassBenches)
	}
	mk := func() []workloads.TaskDef { return makeMixedTasks(n, p.Seed) }
	admit := func() func(sim.Time, int) bool { return serve.BoundedQueue{Limit: 32}.Admit }
	cfg := p.runnerCfg()

	r := newReport("cluster_policy",
		fmt.Sprintf("Dispatch policies on a %d-node fleet (mixed %v, %d tasks, queue32/node, p99 SLO %.0fus)",
			nodes, clusterClassBenches, n, slo/1e3),
		"Arrivals", "Policy", "Scheme", "p50(us)", "p99(us)", "max(us)", "drops", "goodput", "imbalance")
	r.setSeed(p.Seed)

	type policyCell struct {
		arr    string
		policy string
		sc     runners.Scheme
		out    *fleetOut
	}
	s := newSweep(p)
	var cells []policyCell
	for _, ak := range arrivalKinds {
		for _, pname := range cluster.PolicyNames() {
			mkPol, err := cluster.NewPolicy(pname, p.Seed)
			if err != nil {
				panic(err)
			}
			for _, sc := range p.gpuSchemes() {
				cells = append(cells, policyCell{ak.key, pname, sc, s.fleet(fleetSpec{sc: sc, cfg: cfg,
					mk: mk, gen: ak.gen, slo: slo, nodes: nodes, classes: classes, policy: mkPol, admit: admit})})
			}
		}
	}
	s.run()

	for _, c := range cells {
		st := c.out.st
		r.addRow(c.arr, c.policy, c.sc.Display,
			us(st.P50), us(st.P99), us(st.Max),
			fmt.Sprint(st.Dropped), f2(st.Goodput), f2(c.out.imbalance()))
		key := fmt.Sprintf("%s/%s/%s", c.sc.Key, c.policy, c.arr)
		r.set(key+"/p99us", st.P99/1e3)
		r.set(key+"/drops", float64(st.Dropped))
		r.set(key+"/goodput", st.Goodput)
		r.set(key+"/imbalance", c.out.imbalance())
	}
	r.note("per-node admission is a 32-deep bounded queue: a routing mistake shows up as drops on the overloaded node, not just queueing delay")
	r.note("classes interleave %v; affinity homes class c on node c %% %d and p2c probes two seeded-random nodes", clusterClassBenches, nodes)
	return r
}
