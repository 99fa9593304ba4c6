package serve

import (
	"sort"
	"testing"

	"repro/internal/prng"
	"repro/internal/sim"
)

// randomRecords builds n completed records with seeded-random submit, wait and
// service intervals (plus a sprinkling of drops), the raw material for the
// percentile property sweeps below.
func randomRecords(n int, seed int64, dropEvery int) []Record {
	rng := prng.New(seed)
	recs := make([]Record, n)
	var clock sim.Time
	for i := range recs {
		clock += sim.Time(rng.Float01() * 10_000)
		recs[i].Submit = clock
		if dropEvery > 0 && i%dropEvery == dropEvery-1 {
			recs[i].Dropped = true
			continue
		}
		recs[i].Start = clock + sim.Time(rng.Float01()*50_000)
		recs[i].Done = recs[i].Start + sim.Time(1+rng.Float01()*100_000)
	}
	return recs
}

// TestPercentileInvariants sweeps randomized record sets of many sizes and
// asserts the order-statistic laws every Summarize result must satisfy:
// p50 <= p90 <= p99 <= max, every quantile is an observed latency, and the
// bookkeeping (offered = completed + dropped) balances.
func TestPercentileInvariants(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 17, 100, 999} {
		for seed := int64(1); seed <= 5; seed++ {
			recs := randomRecords(n, seed, 7)
			st := Summarize(recs, 25_000)
			if st.Offered != n || st.Completed+st.Dropped != n {
				t.Fatalf("n=%d seed=%d: offered %d != completed %d + dropped %d",
					n, seed, st.Offered, st.Completed, st.Dropped)
			}
			if st.Completed == 0 {
				continue
			}
			if !(st.P50 <= st.P90 && st.P90 <= st.P99 && st.P99 <= st.Max) {
				t.Errorf("n=%d seed=%d: quantiles out of order: p50=%v p90=%v p99=%v max=%v",
					n, seed, st.P50, st.P90, st.P99, st.Max)
			}
			lats := map[sim.Time]bool{}
			var maxLat sim.Time
			for _, r := range recs {
				if !r.Dropped {
					lats[r.Latency()] = true
					if r.Latency() > maxLat {
						maxLat = r.Latency()
					}
				}
			}
			for _, q := range []sim.Time{st.P50, st.P90, st.P99, st.Max} {
				if !lats[q] {
					t.Errorf("n=%d seed=%d: quantile %v is not an observed latency", n, seed, q)
				}
			}
			if st.Max != maxLat {
				t.Errorf("n=%d seed=%d: Max=%v, want true maximum %v", n, seed, st.Max, maxLat)
			}
		}
	}
}

// TestPercentileNearestRankExact pins the nearest-rank definition on vectors
// small enough to enumerate by hand: the q-quantile of n sorted values is the
// ceil(q*n)-th smallest, so tiny n snaps to specific elements rather than
// interpolating between them.
func TestPercentileNearestRankExact(t *testing.T) {
	cases := []struct {
		sorted              []sim.Time
		p50, p90, p99, p100 sim.Time
	}{
		{[]sim.Time{42}, 42, 42, 42, 42},
		{[]sim.Time{10, 20}, 10, 20, 20, 20},                      // ceil(.5*2)=1st, ceil(.9*2)=2nd
		{[]sim.Time{10, 20, 30}, 20, 30, 30, 30},                  // ceil(.5*3)=2nd
		{[]sim.Time{1, 2, 3, 4}, 2, 4, 4, 4},                      // ceil(.9*4)=4th
		{[]sim.Time{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5, 9, 10, 10}, // ceil(.99*10)=10th
	}
	for _, c := range cases {
		if got := Percentile(c.sorted, 0.50); got != c.p50 {
			t.Errorf("p50(%v) = %v, want %v", c.sorted, got, c.p50)
		}
		if got := Percentile(c.sorted, 0.90); got != c.p90 {
			t.Errorf("p90(%v) = %v, want %v", c.sorted, got, c.p90)
		}
		if got := Percentile(c.sorted, 0.99); got != c.p99 {
			t.Errorf("p99(%v) = %v, want %v", c.sorted, got, c.p99)
		}
		if got := Percentile(c.sorted, 1.0); got != c.p100 {
			t.Errorf("p100(%v) = %v, want %v", c.sorted, got, c.p100)
		}
	}
}

// TestPercentileMatchesSortRank cross-checks Percentile against a brute-force
// re-derivation on randomized vectors: sort, index, compare.
func TestPercentileMatchesSortRank(t *testing.T) {
	rng := prng.New(11)
	for n := 1; n <= 64; n++ {
		v := make([]sim.Time, n)
		for i := range v {
			v[i] = sim.Time(rng.Float01() * 1e6)
		}
		sort.Float64s(v)
		for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.99, 1.0} {
			idx := int(float64(n) * q)
			if float64(idx) < float64(n)*q {
				idx++
			}
			if idx < 1 {
				idx = 1
			}
			if got, want := Percentile(v, q), v[idx-1]; got != want {
				t.Fatalf("n=%d q=%v: Percentile=%v, want rank %d value %v", n, q, got, idx, want)
			}
		}
	}
}

// TestMaxSustainableMonotoneInSLO: loosening the SLO can only widen the set of
// sustainable rates, so the reported capacity is non-decreasing in the SLO.
// The verdict vectors are derived from one randomized latency curve per seed —
// monotone-noisy p99s judged against an ascending ladder of SLO bounds.
func TestMaxSustainableMonotoneInSLO(t *testing.T) {
	rates := DefaultRates()
	for seed := int64(1); seed <= 20; seed++ {
		rng := prng.New(seed)
		// A latency curve that drifts upward with load, with noise: realistic
		// enough to produce mixed verdict prefixes across the SLO ladder.
		p99 := make([]float64, len(rates))
		base := 5_000 + rng.Float01()*20_000
		for i := range p99 {
			base += rng.Float01() * 30_000
			p99[i] = base
		}
		slos := []float64{10_000, 25_000, 50_000, 100_000, 200_000, 1e9}
		prev := -1.0
		for _, slo := range slos {
			ok := make([]bool, len(rates))
			for i := range rates {
				ok[i] = p99[i] <= slo
			}
			cap := MaxSustainable(rates, ok)
			if cap < prev {
				t.Fatalf("seed=%d: capacity fell from %v to %v when SLO loosened to %v",
					seed, prev, cap, slo)
			}
			prev = cap
		}
	}
}

// TestSummarizeSLOAccounting: goodput counts only completions within the SLO
// against everything offered, so SLOSatisfied and Goodput must agree with a
// direct recount.
func TestSummarizeSLOAccounting(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		recs := randomRecords(200, seed, 9)
		slo := sim.Time(60_000)
		st := Summarize(recs, slo)
		met := 0
		for _, r := range recs {
			if !r.Dropped && r.Latency() <= slo {
				met++
			}
		}
		if st.SLOMet != met {
			t.Errorf("seed=%d: SLOMet=%d, want %d", seed, st.SLOMet, met)
		}
		if want := float64(met) / float64(len(recs)); st.Goodput != want {
			t.Errorf("seed=%d: Goodput=%v, want %v", seed, st.Goodput, want)
		}
		if st.SLOSatisfied() != (st.Completed > 0 && st.Dropped == 0 && st.P99 <= slo) {
			t.Errorf("seed=%d: SLOSatisfied inconsistent with its definition", seed)
		}
	}
}
