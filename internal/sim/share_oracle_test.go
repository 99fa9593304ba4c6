package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/prng"
)

// TestShareProcessorSharingOracle drives one Share of capacity 1 with no
// per-flow cap, an M/G/1 egalitarian processor-sharing server, with Poisson
// arrivals from a fixed seed. PS is insensitive to the work distribution, so
// for deterministic and exponential work alike the mean sojourn must be
// E[S]/(1-ρ). The tolerance is the 99.9% batch-means confidence interval of
// the measured mean (20 batches after one warm-up batch), and that interval
// must itself be tight enough to mean something.
func TestShareProcessorSharingOracle(t *testing.T) {
	const (
		meanWork = 100.0 // E[S] in time units at capacity 1
		batches  = 20
		perBatch = 10_000
		t999     = 3.883 // two-sided 99.9% Student t quantile, 19 degrees of freedom
	)
	for _, c := range []struct {
		rho float64
		exp bool
	}{{0.3, false}, {0.3, true}, {0.6, false}, {0.6, true}} {
		dist := "deterministic"
		if c.exp {
			dist = "exponential"
		}
		t.Run(fmt.Sprintf("%s/rho=%.1f", dist, c.rho), func(t *testing.T) {
			rng := prng.New(26)
			expo := func(mean float64) float64 { return -math.Log(1-rng.Float01()) * mean }
			e := New()
			s := NewShare(e, 1, math.Inf(1))
			sojourn := make([]float64, (batches+1)*perBatch)
			e.Spawn("arrivals", func(p *Proc) {
				for i := range sojourn {
					p.Sleep(expo(meanWork / c.rho))
					work := meanWork
					if c.exp {
						work = expo(meanWork)
					}
					at := e.Now()
					e.Spawn("job", func(q *Proc) {
						s.Acquire(q, work)
						sojourn[i] = e.Now() - at
					})
				}
			})
			e.Run()

			var means [batches]float64
			var grand float64
			for b := range means {
				for _, x := range sojourn[(b+1)*perBatch : (b+2)*perBatch] {
					means[b] += x / perBatch
				}
				grand += means[b] / batches
			}
			var ss float64
			for _, m := range means {
				ss += (m - grand) * (m - grand)
			}
			half := t999 * math.Sqrt(ss/(batches-1)/batches)
			want := meanWork / (1 - c.rho)
			if math.Abs(grand-want) > half {
				t.Errorf("mean sojourn %.2f, want E[S]/(1-ρ) = %.2f within ±%.2f", grand, want, half)
			}
			if half > 0.05*want {
				t.Errorf("confidence half-width %.2f is over 5%% of %.2f: too few jobs to test anything", half, want)
			}
			t.Logf("mean sojourn %.2f, theory %.2f, 99.9%% half-width %.2f", grand, want, half)
		})
	}
}
