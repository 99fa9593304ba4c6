package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/prng"
)

// TestShareProcessorSharingOracle drives one Share with Poisson arrivals from
// a fixed seed against two queueing-theory targets for the mean sojourn:
//
//   - capacity 1 with no per-flow cap is an M/G/1 egalitarian
//     processor-sharing server. PS is insensitive to the work distribution,
//     so for deterministic and exponential work alike the mean sojourn must
//     be E[S]/(1-ρ).
//   - capacity 4 with per-flow cap 1 and exponential work is an M/M/4
//     server: n requests progress at total rate min(n, 4), the birth-death
//     chain of M/M/4, so by Little's law the mean sojourn is the Erlang-C
//     one, E[S] + C(4, 4ρ)·E[S]/(4(1-ρ)).
//
// The tolerance is the 99.9% batch-means confidence interval of the measured
// mean (20 batches after one warm-up batch), and that interval must itself
// be tight enough to mean something.
func TestShareProcessorSharingOracle(t *testing.T) {
	const (
		meanWork = 100.0 // E[S] in time units at per-flow rate 1
		batches  = 20
		perBatch = 10_000
		t999     = 3.883 // two-sided 99.9% Student t quantile, 19 degrees of freedom
	)
	for _, c := range []struct {
		rho     float64
		exp     bool
		servers int // 1: M/G/1-PS, no per-flow cap; more: M/M/c, cap 1
	}{{0.3, false, 1}, {0.3, true, 1}, {0.6, false, 1}, {0.6, true, 1}, {0.5, true, 4}, {0.8, true, 4}} {
		name := "deterministic"
		if c.exp {
			name = "exponential"
		}
		capacity, perFlow := 1.0, math.Inf(1)
		want := meanWork / (1 - c.rho)
		if c.servers > 1 {
			name = fmt.Sprintf("mm%d", c.servers)
			capacity, perFlow = float64(c.servers), 1
			want = meanWork + erlangC(c.servers, float64(c.servers)*c.rho)*meanWork/(float64(c.servers)*(1-c.rho))
		}
		t.Run(fmt.Sprintf("%s/rho=%.1f", name, c.rho), func(t *testing.T) {
			rng := prng.New(26)
			expo := func(mean float64) float64 { return -math.Log(1-rng.Float01()) * mean }
			e := New()
			s := NewShare(e, capacity, perFlow)
			sojourn := make([]float64, (batches+1)*perBatch)
			e.Spawn("arrivals", func(p *Proc) {
				for i := range sojourn {
					p.Sleep(expo(meanWork / (capacity * c.rho)))
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
			if math.Abs(grand-want) > half {
				t.Errorf("mean sojourn %.2f, want %.2f within ±%.2f", grand, want, half)
			}
			if half > 0.05*want {
				t.Errorf("confidence half-width %.2f is over 5%% of %.2f: too few jobs to test anything", half, want)
			}
			t.Logf("mean sojourn %.2f, theory %.2f, 99.9%% half-width %.2f", grand, want, half)
		})
	}
}

// erlangC is the probability that an arrival waits in an M/M/c queue offered
// a = λ/μ erlangs (a < c).
func erlangC(c int, a float64) float64 {
	term, sum := 1.0, 0.0 // term = a^k/k!
	for k := 0; k < c; k++ {
		sum += term
		term *= a / float64(k+1)
	}
	tail := term * float64(c) / (float64(c) - a)
	return tail / (sum + tail)
}
