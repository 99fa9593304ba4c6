// Package tenancy layers tenant classes over the open-loop serving model:
// several arrival streams — each with its own priority, contracted rate,
// burst and latency SLO — multiplexed onto one device through a
// class-aware admission layer.
//
// The package deliberately owns no scheduler. It composes with the existing
// seams: a Merge of per-class serve.Generator streams produces the single
// nondecreasing arrival sequence the runners consume, and an Admission value
// plugs into runners.ClusterOpenLoop.AdmitTask to police, prioritize and
// preempt at each task's presentation instant. Per-class outcomes are
// recorded so the conservation identities (offered = shed + admitted;
// admitted = served + evicted) are checkable after every run.
package tenancy

import (
	"fmt"
	"math"

	"repro/internal/serve"
	"repro/internal/sim"
)

// Class describes one tenant class: who it is, how important it is, what
// rate it contracted for, and what latency it was promised.
type Class struct {
	Name string

	// Priority orders classes for strict-priority admission and the SLO
	// guard: higher values are served first. Ties are legal but make the
	// strict policy treat the tied classes as peers.
	Priority int

	// Rate is the contracted sustained rate in tasks/second — what the
	// class's token bucket refills at. A misbehaving tenant offers more
	// than Rate; the bucket is how the system holds it to its contract.
	Rate float64

	// Burst is the token-bucket depth in tasks (values below one are
	// clamped by serve.NewTokenBucket).
	Burst float64

	// SLO is the class's p99 latency bound in cycles.
	SLO sim.Time

	// Gen produces the class's arrival stream. Its rate need not match the
	// contracted Rate — that mismatch is exactly what a misbehaving tenant
	// looks like.
	Gen serve.Generator
}

// Validate checks the class parameters and its generator.
func (c Class) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("tenancy: class has no name")
	}
	if c.Rate <= 0 || math.IsNaN(c.Rate) || math.IsInf(c.Rate, 0) {
		return fmt.Errorf("tenancy: class %s contracted rate %v is not positive finite", c.Name, c.Rate)
	}
	if c.SLO <= 0 || math.IsNaN(c.SLO) || math.IsInf(c.SLO, 0) {
		return fmt.Errorf("tenancy: class %s SLO %v is not positive finite", c.Name, c.SLO)
	}
	if c.Gen == nil {
		return fmt.Errorf("tenancy: class %s has no arrival generator", c.Name)
	}
	if err := c.Gen.Validate(); err != nil {
		return fmt.Errorf("tenancy: class %s: %w", c.Name, err)
	}
	return nil
}

// Merge interleaves the per-class arrival streams into the single
// nondecreasing sequence the open-loop runners consume: counts[c] arrivals
// are drawn from classes[c].Gen and merged by timestamp, ties broken by
// lower class index. It returns the merged arrival instants and, parallel to
// them, the class index of each task.
//
// With a single class Merge reduces to exactly that class's Gen.Times(n) —
// the property the harness pins to show the tenancy layer adds nothing when
// there is nothing to arbitrate.
func Merge(classes []Class, counts []int) (arrivals []sim.Time, classOf []int) {
	if len(counts) != len(classes) {
		panic(fmt.Sprintf("tenancy: %d counts for %d classes", len(counts), len(classes)))
	}
	total := 0
	streams := make([][]sim.Time, len(classes))
	for c, cl := range classes {
		if err := cl.Validate(); err != nil {
			panic(err.Error())
		}
		if counts[c] < 0 {
			panic(fmt.Sprintf("tenancy: class %s count %d is negative", cl.Name, counts[c]))
		}
		streams[c] = cl.Gen.Times(counts[c])
		total += counts[c]
	}
	arrivals = make([]sim.Time, 0, total)
	classOf = make([]int, 0, total)
	heads := make([]int, len(classes))
	for len(arrivals) < total {
		best := -1
		for c := range streams {
			if heads[c] >= len(streams[c]) {
				continue
			}
			if best < 0 || streams[c][heads[c]] < streams[best][heads[best]] {
				best = c
			}
		}
		arrivals = append(arrivals, streams[best][heads[best]])
		classOf = append(classOf, best)
		heads[best]++
	}
	return arrivals, classOf
}

// DefaultClasses returns the canonical tenant mix of the tenant_qos
// experiment: a latency-critical premium class on a diurnal curve, a
// standard class on plain Poisson traffic, and a throughput batch class
// whose flash crowd arrives mid-run. Extra classes beyond three are
// batch-like clones at ever lower priority.
//
// rate is the contracted tasks/second of each class; slo the premium p99
// bound in cycles (lower classes get progressively looser bounds); horizon
// the expected run length in cycles (it scales the diurnal period and the
// flash-crowd window so the shapes land inside the run). misbehave, when a
// valid index, makes that class offer 10x its contracted rate — the
// contract Rate stays unchanged, which is precisely the violation.
func DefaultClasses(n int, rate float64, slo, horizon sim.Time, seed int64, misbehave int) []Class {
	if n < 1 {
		n = 1
	}
	classes := make([]Class, 0, n)
	for i := 0; i < n; i++ {
		offered := rate
		if i == misbehave {
			offered = rate * 10
		}
		var cl Class
		switch i {
		case 0:
			// The honest diurnal peak (mean * 1.5) sits at 75% of the
			// contracted rate and the bucket holds 16 tokens, so policing
			// never sheds a well-behaved premium tenant — not even for the
			// Poisson fluctuations at the top of its day.
			cl = Class{Name: "premium", Priority: 2, Rate: rate, Burst: 16, SLO: slo,
				Gen: serve.Diurnal{MeanRate: offered / 2, Swing: 0.5, Period: horizon, Seed: seed + 101}}
		case 1:
			cl = Class{Name: "standard", Priority: 1, Rate: rate, Burst: 8, SLO: 4 * slo,
				Gen: serve.Poisson{Rate: offered, Seed: seed + 202}}
		default:
			name := "batch"
			if i > 2 {
				name = fmt.Sprintf("batch%d", i-1)
			}
			cl = Class{Name: name, Priority: 2 - i, Rate: rate, Burst: 16, SLO: 16 * slo,
				Gen: serve.FlashCrowd{BaseRate: offered / 2, SpikeRate: offered * 4,
					SpikeAt: 0.4 * horizon, SpikeDur: 0.2 * horizon, Seed: seed + 303*int64(i)}}
		}
		classes = append(classes, cl)
	}
	return classes
}

// ClassStats is one class's slice of a run: the usual serve.Stats over the
// class's records judged against the class SLO, plus the admission-layer
// outcome split and the SLO-violation count.
type ClassStats struct {
	Class string
	serve.Stats

	// Shed counts arrivals rejected at the door by the class's token
	// bucket (contract policing). Evicted counts tasks that passed
	// policing but were refused the slot in favor of a more important class.
	// Stats.Dropped == Shed + Evicted.
	Shed    int
	Evicted int

	// Violations counts completed tasks over the class SLO
	// (Completed - SLOMet).
	Violations int
}

// SummarizeClasses splits one run's records by class and summarizes each
// against its own SLO. recs, classOf and outcomes are parallel to the merged
// task order.
func SummarizeClasses(classes []Class, classOf []int, recs []serve.Record, outcomes []Outcome) []ClassStats {
	if len(classOf) != len(recs) || len(outcomes) != len(recs) {
		panic(fmt.Sprintf("tenancy: %d records, %d classOf, %d outcomes", len(recs), len(classOf), len(outcomes)))
	}
	byClass := make([][]serve.Record, len(classes))
	out := make([]ClassStats, len(classes))
	for i, r := range recs {
		c := classOf[i]
		byClass[c] = append(byClass[c], r)
		switch outcomes[i] {
		case Shed:
			out[c].Shed++
		case Evicted:
			out[c].Evicted++
		}
	}
	for c := range classes {
		out[c].Class = classes[c].Name
		out[c].Stats = serve.Summarize(byClass[c], classes[c].SLO)
		out[c].Violations = out[c].Completed - out[c].SLOMet
	}
	return out
}
