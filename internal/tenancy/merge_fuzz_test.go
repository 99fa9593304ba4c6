package tenancy

import (
	"fmt"
	"testing"

	"repro/internal/serve"
	"repro/internal/sim"
)

// FuzzClassMerge: Merge never panics on classes that pass Validate. Up to
// three classes share the fuzzed parameters, each on its own generator
// kind and rate multiple; those Validate rejects are dropped. The merged
// arrivals are nondecreasing, every class gets exactly its count of tasks,
// and each class's tasks arrive at its own generator's instants, in order.
//
//	go test -run '^$' -fuzz=FuzzClassMerge -fuzztime=60s -parallel=2 ./internal/tenancy
func FuzzClassMerge(f *testing.F) {
	f.Add(uint8(0), 16e3, 0.6, 4e5, 1e6, int64(1), uint8(8), uint8(8), uint8(8))
	f.Add(uint8(3), 64e3, 8.0, 1e6, 5e5, int64(7), uint8(64), uint8(0), uint8(3))
	f.Add(uint8(4), 8e3, 64e3, 4e6, 1e3, int64(2), uint8(1), uint8(40), uint8(0))
	f.Add(uint8(1), 1e-300, 0.0, 0.0, 1e-300, int64(0), uint8(3), uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, kind uint8, rate, a, b, slo float64, seed int64, n0, n1, n2 uint8) {
		var classes []Class
		var counts []int
		for c, n := range []uint8{n0, n1, n2} {
			r := rate * float64(c+1)
			var g serve.Generator
			switch (int(kind) + c) % 5 {
			case 0:
				g = serve.FixedRate{Rate: r}
			case 1:
				g = serve.Poisson{Rate: r, Seed: seed + int64(c)}
			case 2:
				g = serve.Bursty{PeakRate: r, Burst: int(a), Gap: b}
			case 3:
				g = serve.Diurnal{MeanRate: r, Swing: a, Period: b, Seed: seed + int64(c)}
			default:
				g = serve.FlashCrowd{BaseRate: r, SpikeRate: a, SpikeAt: b, SpikeDur: b + 1, Seed: seed + int64(c)}
			}
			cl := Class{Name: fmt.Sprintf("c%d", c), Priority: -c, Rate: r,
				Burst: 4, SLO: sim.Time(slo), Gen: g}
			if cl.Validate() != nil {
				continue
			}
			classes = append(classes, cl)
			counts = append(counts, int(n%65))
		}
		arrivals, classOf := Merge(classes, counts)
		if len(classOf) != len(arrivals) {
			t.Fatalf("%d arrivals but %d class indices", len(arrivals), len(classOf))
		}
		got := make([][]sim.Time, len(classes))
		for i, at := range arrivals {
			if i > 0 && at < arrivals[i-1] {
				t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, at, i-1, arrivals[i-1])
			}
			got[classOf[i]] = append(got[classOf[i]], at)
		}
		for c, cl := range classes {
			want := cl.Gen.Times(counts[c])
			if len(got[c]) != counts[c] {
				t.Fatalf("class %s: %d tasks, want %d", cl.Name, len(got[c]), counts[c])
			}
			for i := range want {
				if got[c][i] != want[i] {
					t.Fatalf("class %s task %d arrives at %v, its generator says %v", cl.Name, i, got[c][i], want[i])
				}
			}
		}
	})
}
