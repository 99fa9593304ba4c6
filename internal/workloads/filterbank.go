package workloads

import "repro/internal/prng"

// FilterBank (FB): the StreamIt filter bank of Fig. 1c — convolve the input
// with H, down-sample, up-sample, convolve with F. "Multiple radios generate
// signals, processing each of them represents a task." Table 3: signals of
// width 2K, requires threadblock synchronization (between the pipeline
// stages).

const fbDownFactor = 4

// fbStage computes out[i] = sum_k in[i-k] * taps[k] (causal FIR, zero-padded
// history), the paper's "if ((tid-k) > 0) Vect_H[tid] += r[tid-k]*H[k]".
func fbStage(in, taps []float32, out []float32) {
	for i := range out {
		var acc float32
		for k := 0; k < len(taps); k++ {
			if i-k >= 0 {
				acc += in[i-k] * taps[k]
			}
		}
		out[i] = acc
	}
}

// fbRef runs the full pipeline on one signal.
func fbRef(sig, h, f []float32) []float32 {
	n := len(sig)
	vh := make([]float32, n)
	fbStage(sig, h, vh)
	// Down-sample then up-sample with zero stuffing.
	vu := make([]float32, n)
	for i := 0; i < n; i += fbDownFactor {
		vu[i] = vh[i]
	}
	out := make([]float32, n)
	fbStage(vu, f, out)
	return out
}

// FilterBank returns the FB benchmark.
func FilterBank() Benchmark {
	return Benchmark{
		Name: "FB",
		Make: makeFB,
	}
}

func makeFB(opt Options) []TaskDef {
	rng := prng.New(opt.Seed)
	threads := opt.threads(256)
	tasks := make([]TaskDef, opt.Tasks)

	// The filter taps are shared across all radios.
	h := make([]float32, fbTaps)
	f := make([]float32, fbTaps)
	for k := range h {
		h[k] = float32(rng.Float01()*2 - 1)
		f[k] = float32(rng.Float01()*2 - 1)
	}

	for i := range tasks {
		width := 2048
		if opt.InputSize > 0 {
			width = opt.InputSize
		}
		if opt.Irregular {
			width = 256 << uint(rangeInt(rng, 1, 4)) // 512..4096
		}

		var sig, out, want, vh, vu []float32
		if opt.Verify {
			sig = make([]float32, width)
			for p := range sig {
				sig[p] = float32(rng.Float01()*2 - 1)
			}
			out = make([]float32, width)
			// Stage intermediates are task-scoped: warps exchange them
			// across the syncBlock barriers.
			vh = make([]float32, width)
			vu = make([]float32, width)
			want = fbRef(sig, h, f)
		}

		// Work: two FIR stages of width*taps MACs plus the resampling pass.
		units := 2*width*fbTaps + width

		t := TaskDef{
			Name:      "FB",
			Threads:   opt.pickThreads(threads, width, 2048),
			Blocks:    1,
			Sync:      true,
			ArgBytes:  64,
			Regs:      21,
			InBytes:   width * 4,
			OutBytes:  width * 4,
			CPUCycles: float64(units) * fbCPUCyclesPerTap,
		}
		t.Kernel = func(c DeviceCtx) {
			// Stage 1: convolve H.
			if sig != nil {
				c.ForEachLane(func(tid int) {
					lo, hi := laneUnits(c, width, tid)
					for p := lo; p < hi; p++ {
						var acc float32
						for k := 0; k < fbTaps; k++ {
							if p-k >= 0 {
								acc += sig[p-k] * h[k]
							}
						}
						vh[p] = acc
					}
				})
			}
			chargeWarp(c, width*fbTaps, fbCyclesPerTap, width*4, 0, 2)
			c.SyncBlock()
			// Stage 2: down/up sample.
			if sig != nil {
				c.ForEachLane(func(tid int) {
					lo, hi := laneUnits(c, width, tid)
					for p := lo; p < hi; p++ {
						if p%fbDownFactor == 0 {
							vu[p] = vh[p]
						}
					}
				})
			}
			chargeWarp(c, width, 1.0, 0, 0, 1)
			c.SyncBlock()
			// Stage 3: convolve F.
			if sig != nil {
				c.ForEachLane(func(tid int) {
					lo, hi := laneUnits(c, width, tid)
					for p := lo; p < hi; p++ {
						var acc float32
						for k := 0; k < fbTaps; k++ {
							if p-k >= 0 {
								acc += vu[p-k] * f[k]
							}
						}
						out[p] = acc
					}
				})
			}
			chargeWarp(c, width*fbTaps, fbCyclesPerTap, 0, width*4, 2)
		}
		if opt.Verify {
			t.CPURun = func() { copy(out, fbRef(sig, h, f)) }
			t.Check = func() error { return approxEqual32("FB", out, want, 1e-3) }
		}
		tasks[i] = t
	}
	return tasks
}
