package harness

import (
	"fmt"

	"repro/internal/runners"
	"repro/internal/sim"
	"repro/internal/tenancy"
	"repro/internal/workloads"
)

// tenantRate is the contracted per-class rate of the tenant_qos experiment
// (tasks/second). The honest aggregate sits comfortably under the device's
// knee; the misbehaving tenant's 10x overshoot is what pushes the system
// into the regime where admission policy decides who pays.
const tenantRate = 192e3

// tenantAdmitLimit bounds the admitted-but-uncompleted backlog for the
// strict and wfq policies (mirrors the queue64 point of serve_latency).
const tenantAdmitLimit = 64

// tenantCounts splits the run's task budget evenly across the classes,
// front-loading the remainder so counts are deterministic in class order.
func tenantCounts(total, classes int) []int {
	counts := make([]int, classes)
	for c := range counts {
		counts[c] = total / classes
		if c < total%classes {
			counts[c]++
		}
	}
	return counts
}

// tenantClasses builds the experiment's class mix for one run: the canonical
// premium/standard/batch tiers, one of them (p.Misbehave) offering 10x its
// contract, with the diurnal period and flash-crowd window scaled to the
// run's expected span.
func tenantClasses(p Params, n int, slo sim.Time) []tenancy.Class {
	perClass := n / p.Tenants
	if perClass < 1 {
		perClass = 1
	}
	horizon := sim.Time(float64(perClass) / tenantRate * 1e9)
	return tenancy.DefaultClasses(p.Tenants, tenantRate, slo, horizon, p.Seed, p.Misbehave)
}

// TenantQoS regenerates the multi-tenant QoS table: the transformer-layer
// inference workload offered by several tenant classes — one misbehaving at
// 10x its contracted rate — under each admission policy (pass-through,
// strict priority, weighted-fair), for every GPU scheme. Each row is one
// class's slice of one run: tail latency against the class's own SLO,
// goodput, SLO violations, and the admission layer's shed/evicted split.
func TenantQoS(p Params) *Report {
	p = p.fill()
	n := serveTaskCount(p)
	slo := p.sloCycles()

	misbehave := fmt.Sprintf("class %d at 10x contract", p.Misbehave)
	if p.Misbehave < 0 {
		misbehave = "all classes honest"
	}
	r := newReport("tenant_qos",
		fmt.Sprintf("Multi-tenant QoS (XFMR, %d tasks, %d classes, %s, premium p99 SLO %.0fus)",
			n, p.Tenants, misbehave, slo/1e3),
		"Policy", "Scheme", "Class", "p99(us)", "goodput", "viol", "shed", "evict")
	r.setSeed(p.Seed)

	b, _ := workloads.ByName("XFMR")
	cfg := p.runnerCfg()
	classes := tenantClasses(p, n, slo)
	counts := tenantCounts(n, p.Tenants)

	mk := func() []workloads.TaskDef { return b.Make(workloads.Options{Tasks: n, Seed: p.Seed}) }

	type qosCell struct {
		policy string
		sc     runners.Scheme
		out    *fleetOut
	}
	s := newSweep(p)
	var cells []qosCell
	for _, policy := range tenancy.Kinds() {
		mix := &tenantMix{policy: policy, classes: classes, counts: counts}
		for _, sc := range p.gpuSchemes() {
			cells = append(cells, qosCell{policy, sc,
				s.fleet(fleetSpec{sc: sc, cfg: cfg, mk: mk, slo: slo, tenants: mix})})
		}
	}
	s.run()

	for _, c := range cells {
		for _, st := range c.out.classes {
			r.addRow(c.policy, c.sc.Display, st.Class,
				us(st.P99), f2(st.Goodput),
				fmt.Sprint(st.Violations), fmt.Sprint(st.Shed), fmt.Sprint(st.Evicted))
			key := fmt.Sprintf("%s/%s/%s", c.policy, st.Class, c.sc.Key)
			r.set(key+"/p99us", st.P99/1e3)
			r.set(key+"/goodput", st.Goodput)
			r.set(key+"/viol", float64(st.Violations))
			r.set(key+"/shed", float64(st.Shed))
			r.set(key+"/evict", float64(st.Evicted))
		}
	}
	r.note("each class is judged against its own p99 SLO (premium %.0fus, each tier below 4x looser); viol = completed tasks over it", slo/1e3)
	r.note("shed = rejected at the door by the class token bucket (contract policing); evict = preempted at the service slot in favor of a higher class")
	r.note("the 'none' policy is the no-isolation baseline: compare the premium rows across policies to see what admission control buys the victim")
	return r
}
