package gpu

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// TestMetricsMidRunLeavesRunBitIdentical samples Metrics every 1 to ~124
// cycles while 40 overlapping GlobalRead/Compute kernels run on a 2-SMM
// device, and checks the run against one that never samples: every warp
// completion instant and the final Metrics must match bit for bit. A Metrics
// read that settles the issue engines splits their progress intervals and
// re-keys their completion timers, which moves completions by a few ulps.
func TestMetricsMidRunLeavesRunBitIdentical(t *testing.T) {
	const kernels = 40
	run := func(sample bool) ([]sim.Time, Metrics, int) {
		eng := sim.New()
		dev := NewDevice(eng, testCfg())
		var done []sim.Time
		warps := 0
		for k := 0; k < kernels; k++ {
			warps += (1 + k%6) * (1 + k%4)
			eng.Schedule(float64(k*13)+0.25, func() {
				dev.Launch(LaunchSpec{
					Name: "mix", GridDim: 1 + k%6, BlockThreads: 32 * (1 + k%4),
					Fn: func(c *Ctx) {
						for i := 0; i < 4; i++ {
							c.GlobalRead(64 * (1 + (k+i)%9))
							c.Compute(float64(40+(k*7+i*13)%97) + 0.3)
						}
						done = append(done, eng.Now())
					},
				})
			})
		}
		// Both runs carry the sampler's sleeps, so they schedule the same
		// events; only the Metrics reads differ.
		samples := 0
		eng.Spawn("sampler", func(p *sim.Proc) {
			for i := 0; len(done) < warps; i++ {
				p.Sleep(1 + math.Mod(float64(i)*61.73, 123.4567))
				if sample {
					dev.Metrics()
					samples++
				}
			}
		})
		eng.Run()
		return done, dev.Metrics(), samples
	}
	plain, plainM, _ := run(false)
	sampled, sampledM, samples := run(true)
	if samples < 100 {
		t.Fatalf("only %d mid-run samples; the check needs many", samples)
	}
	if len(sampled) != len(plain) {
		t.Fatalf("%d warp completions sampled, %d unsampled", len(sampled), len(plain))
	}
	changed := 0
	for i := range plain {
		if math.Float64bits(sampled[i]) != math.Float64bits(plain[i]) {
			changed++
		}
	}
	if changed > 0 {
		t.Errorf("%d of %d warp completion instants changed when Metrics was sampled mid-run", changed, len(plain))
	}
	if sampledM != plainM {
		t.Errorf("final Metrics differ: sampled %+v, unsampled %+v", sampledM, plainM)
	}
}
