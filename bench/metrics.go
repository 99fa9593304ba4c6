package main

import (
	"math"
	"sort"
	"strings"

	"repro/internal/runners"
	"repro/internal/serve"
	"repro/internal/sim"
)

// metrics reduces a run's set-ups and rounds to named values. Host times
// come from the fastest round: every round does the same work, and a busy
// neighbour on a shared host only ever adds time, so the fastest round is
// the steadiest estimate of the simulator's own speed. Set-up time is the
// median of the set-ups. Virtual-time values come from the first round,
// which every later round reproduced bit for bit.
type metrics struct {
	tr     *tracer
	setups []int // setup span ids
	rounds []round
}

func (m metrics) pick(traced bool) []round {
	var out []round
	for _, r := range m.rounds {
		if r.traced == traced {
			out = append(out, r)
		}
	}
	return out
}

// perRound returns the median of f over the given rounds.
func perRound(rs []round, f func(round) float64) float64 {
	vs := make([]float64, len(rs))
	for i, r := range rs {
		vs[i] = f(r)
	}
	return median(vs)
}

// fastest returns f of the round with the shortest wall time.
func fastest(rs []round, f func(round) float64) float64 {
	if len(rs) == 0 {
		return math.NaN()
	}
	best := rs[0]
	for _, r := range rs[1:] {
		if r.wallNs < best.wallNs {
			best = r
		}
	}
	return f(best)
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func completed(outs []outcome) int {
	n := 0
	for _, o := range outs {
		n += o.completed
	}
	return n
}

func tasksPerSec(r round) float64 { return float64(completed(r.outs)) / (float64(r.wallNs) / 1e9) }

// ratio is a/b, or 0 when b is 0 (the quantity does not occur on the
// workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd returns the untraced run's metrics.
func (m metrics) endToEnd() map[string]metric {
	rs := m.pick(false)
	setup := make([]float64, len(m.setups))
	for i, id := range m.setups {
		s := m.tr.spans[id]
		setup[i] = float64(s.End-s.Start) / 1e9
	}
	_, p90, _, _ := m.pagodaLatency()
	return map[string]metric{
		"tasks_per_s": {fastest(rs, tasksPerSec), "tasks/s"},
		"setup_s":     {median(setup), "s"},
		"alloc_bytes_per_task": {perRound(rs, func(r round) float64 {
			return float64(r.alloc) / float64(completed(r.outs))
		}), "B"},
		"allocs_per_task": {perRound(rs, func(r round) float64 {
			return float64(r.mallocs) / float64(completed(r.outs))
		}), "allocs"},
		"sim_p90_us": {p90 / 1e3, "us"},
	}
}

// pagodaLatency returns Pagoda's per-task latency quantiles (nearest rank,
// virtual cycles) and their sample count. Closed loops only expose the
// quantiles per benchmark, so there each is their geometric mean.
func (m metrics) pagodaLatency() (p50, p90, p99 sim.Time, samples int) {
	var lats []sim.Time
	var logs [3]float64
	cells := 0
	for _, o := range m.rounds[0].outs {
		if o.scheme != "pagoda" {
			continue
		}
		samples += o.completed
		if o.recs == nil {
			for i, q := range []sim.Time{o.res.P50Latency, o.res.P90Latency, o.res.P99Latency} {
				logs[i] += math.Log(q)
			}
			cells++
			continue
		}
		for _, r := range o.recs {
			if !r.Dropped {
				lats = append(lats, r.Latency())
			}
		}
	}
	if cells > 0 {
		n := float64(cells)
		return math.Exp(logs[0] / n), math.Exp(logs[1] / n), math.Exp(logs[2] / n), samples
	}
	if len(lats) == 0 {
		return math.NaN(), math.NaN(), math.NaN(), 0
	}
	sort.Float64s(lats)
	return serve.Percentile(lats, 0.50), serve.Percentile(lats, 0.90), serve.Percentile(lats, 0.99), samples
}

// perLayer returns the traced run's metrics; shares and samples come from
// the CPU profile of its traced rounds.
func (m metrics) perLayer(shares map[string]float64, samples int64) map[string]metric {
	plain, traced := m.pick(false), m.pick(true)
	first, ctr := m.rounds[0], traced[0].ctr
	out := map[string]metric{}
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	for _, key := range runners.SchemeKeys() {
		set("runners."+key+".run_s", fastest(plain, func(r round) float64 {
			var ns int64
			for _, o := range r.outs {
				if o.scheme == key {
					ns += o.runNs
				}
			}
			return float64(ns) / 1e9
		}), "s")
	}
	setupSum := func(name string) float64 {
		vs := make([]float64, len(m.setups))
		for i, id := range m.setups {
			vs[i] = float64(m.tr.sumChildren(id, name)) / 1e9
		}
		return median(vs)
	}
	set("workloads.make_s", setupSum("make"), "s")
	set("serve.arrivals_s", setupSum("arrivals"), "s")
	set("tenancy.merge_s", setupSum("merge"), "s")

	done := float64(completed(first.outs))
	offered, sloMet, shed, evicted := 0, 0, 0, 0
	var waitSum, latSum, occ, util float64
	var lagMax sim.Time
	for _, o := range first.outs {
		offered += o.offered
		shed += o.shed
		evicted += o.evicted
		occ += o.res.Occupancy
		util += o.res.IssueUtil
		if o.recs != nil {
			sloMet += o.sloMet
			waitSum += o.st.MeanWait * float64(o.st.Completed)
			latSum += o.st.Mean * float64(o.st.Completed)
			lagMax = max(lagMax, o.lagMax)
		}
	}
	cells := float64(len(first.outs))
	set("workloads.kernel_calls_per_task", ratio(float64(ctr.kernelCalls), done), "count")
	set("workloads.cost_ops_per_task", ratio(float64(ctr.costOps), done), "count")
	set("workloads.host_ns_per_cost_op", ratio(fastest(plain, func(r round) float64 {
		return float64(r.wallNs)
	}), float64(ctr.costOps)), "ns")

	set("serve.admit_calls_per_task", ratio(float64(ctr.admitCalls), float64(offered)), "count")
	set("serve.admit_reject_frac", ratio(float64(ctr.admitRejects), float64(ctr.admitCalls)), "fraction")
	set("serve.summarize_s", fastest(plain, func(r round) float64 {
		return sumNs(r, func(o outcome) int64 { return o.summarizeNs })
	}), "s")
	set("serve.wait_frac", ratio(waitSum, latSum), "fraction")
	set("serve.submit_lag_max_us", lagMax/1e3, "us")

	set("tenancy.admit_ns_per_call", ratio(float64(ctr.admitTaskNs), float64(ctr.admitCalls)), "ns")
	set("tenancy.shed_frac", ratio(float64(shed), float64(offered)), "fraction")
	set("tenancy.evict_frac", ratio(float64(evicted), float64(offered)), "fraction")

	set("cluster.pick_calls", float64(ctr.pickCalls), "count")
	set("cluster.pick_ns_per_call", ratio(float64(ctr.pickNs), float64(ctr.pickCalls)), "ns")
	set("cluster.imbalance", imbalance(first.outs), "x")
	set("cluster.conservation_s", fastest(plain, func(r round) float64 {
		return sumNs(r, func(o outcome) int64 { return o.conservationNs })
	}), "s")

	outs, ins, peak := 0, 0, 0
	for _, o := range first.outs {
		if o.scale != nil {
			outs += o.scale.ScaleOuts
			ins += o.scale.ScaleIns
			peak = max(peak, o.scale.Peak)
		}
	}
	set("autoscale.target_calls", float64(ctr.targetCalls), "count")
	set("autoscale.target_ns_per_call", ratio(float64(ctr.targetNs), float64(ctr.targetCalls)), "ns")
	set("autoscale.scale_outs", float64(outs), "count")
	set("autoscale.scale_ins", float64(ins), "count")
	set("autoscale.peak_nodes", float64(peak), "count")

	set("gpu.occupancy", ratio(occ, cells), "fraction")
	set("gpu.issue_util", ratio(util, cells), "fraction")

	for _, b := range cpuBuckets {
		name := b + ".cpu_frac"
		if strings.HasPrefix(b, "goruntime.") {
			name = b + "_cpu_frac"
		}
		set(name, shares[b], "fraction")
	}
	set("profile.samples", float64(samples), "count")

	set("sim.leaked_goroutines_per_cell", perRound(plain, func(r round) float64 {
		return float64(r.leaked) / float64(r.cells)
	}), "count")
	set("goruntime.gc_cycles", perRound(plain, func(r round) float64 { return float64(r.gcs) }), "count")
	var cpuNs, wallNs int64
	for _, r := range plain {
		cpuNs += r.cpuNs
		wallNs += r.wallNs
	}
	set("goruntime.cpu_per_wall", ratio(float64(cpuNs), float64(wallNs)), "fraction")
	_, rss := usage()
	set("goruntime.max_rss_mb", rss, "MiB")
	set("bench.trace_overhead_frac", 1-fastest(traced, tasksPerSec)/fastest(plain, tasksPerSec), "fraction")

	p50, _, p99, n := m.pagodaLatency()
	set("sim_p50_us", p50/1e3, "us")
	set("sim_p99_us", p99/1e3, "us")
	set("sim_latency_samples", float64(n), "count")
	set("sim_goodput", ratio(float64(sloMet), float64(offered)), "fraction")
	set("sim_speedup_vs_hyperq", speedupVsHyperQ(first.outs), "x")
	set("sim_node_s_per_mtask", nodeSecPerMTask(first.outs), "node-s")
	return out
}

func sumNs(r round, f func(outcome) int64) float64 {
	var ns int64
	for _, o := range r.outs {
		ns += f(o)
	}
	return float64(ns) / 1e9
}

// imbalance is the mean over fleet cells of max ÷ mean routed tasks per
// node (1 is an even split); 0 without a fleet.
func imbalance(outs []outcome) float64 {
	var sum float64
	fleets := 0
	for _, o := range outs {
		if len(o.views) == 0 {
			continue
		}
		total, most := 0, 0
		for _, v := range o.views {
			total += v.Routed
			most = max(most, v.Routed)
		}
		sum += ratio(float64(most)*float64(len(o.views)), float64(total))
		fleets++
	}
	return ratio(sum, float64(fleets))
}

// speedupVsHyperQ is the geometric mean over closed-loop benchmarks of
// HyperQ's makespan ÷ Pagoda's, the paper's headline; 0 on open loops.
func speedupVsHyperQ(outs []outcome) float64 {
	hq := map[string]sim.Time{}
	var pg []outcome
	for _, o := range outs {
		if o.recs != nil {
			return 0
		}
		switch o.scheme {
		case "hyperq":
			hq[o.bench] = o.res.Elapsed
		case "pagoda":
			pg = append(pg, o)
		}
	}
	var logSum float64
	for _, o := range pg {
		logSum += math.Log(hq[o.bench] / o.res.Elapsed)
	}
	return math.Exp(ratio(logSum, float64(len(pg))))
}

// nodeSecPerMTask is Pagoda's scaler cost: provisioned node-seconds per
// million tasks served; 0 without an elastic fleet.
func nodeSecPerMTask(outs []outcome) float64 {
	var nodeSec float64
	done := 0
	for _, o := range outs {
		if o.scheme == "pagoda" && o.scale != nil {
			nodeSec += o.scale.NodeSeconds()
			done += o.completed
		}
	}
	return ratio(nodeSec, float64(done)/1e6)
}
