package workloads

import "repro/internal/prng"

// BeamFormer (BF): the StreamIt beam former — steer an antenna array by
// combining one input signal into several beams with per-beam complex
// weights. "Many independent signal beams receive inputs asynchronously;
// processing individual inputs generates a narrow task." Table 3: signals of
// width 2K, no shared memory, no sync.

// bfRef computes, for each beam b, out[b*n+i] = re(w_b) * sig[i] rotated by
// the beam's phase progression — a simplified narrowband beamformer with one
// multiply-accumulate pair per sample per beam.
func bfRef(sig []float32, wRe, wIm []float32, n int) []float32 {
	beams := len(wRe)
	out := make([]float32, beams*n)
	for b := 0; b < beams; b++ {
		for i := 0; i < n; i++ {
			// Complex rotate the real signal by the beam weight; the
			// imaginary partner sample is the neighbouring element.
			var prev float32
			if i > 0 {
				prev = sig[i-1]
			}
			out[b*n+i] = wRe[b]*sig[i] - wIm[b]*prev
		}
	}
	return out
}

// BeamFormer returns the BF benchmark.
func BeamFormer() Benchmark {
	return Benchmark{
		Name: "BF",
		Make: makeBF,
	}
}

func makeBF(opt Options) []TaskDef {
	rng := prng.New(opt.Seed)
	threads := opt.threads(256)
	tasks := make([]TaskDef, opt.Tasks)

	wRe := make([]float32, bfBeams)
	wIm := make([]float32, bfBeams)
	for b := range wRe {
		wRe[b] = float32(rng.Float01()*2 - 1)
		wIm[b] = float32(rng.Float01()*2 - 1)
	}

	for i := range tasks {
		width := 2048
		if opt.InputSize > 0 {
			width = opt.InputSize
		}
		if opt.Irregular {
			width = 256 << uint(rangeInt(rng, 1, 4))
		}
		units := width * bfBeams

		var sig, out, want []float32
		if opt.Verify {
			sig = make([]float32, width)
			for p := range sig {
				sig[p] = float32(rng.Float01()*2 - 1)
			}
			out = make([]float32, units)
			want = bfRef(sig, wRe, wIm, width)
		}

		t := TaskDef{
			Name:      "BF",
			Threads:   opt.pickThreads(threads, width, 2048),
			Blocks:    1,
			ArgBytes:  64,
			Regs:      34,
			InBytes:   width * 4,
			OutBytes:  units * 4 / bfBeams, // beams are reduced before copy-out
			CPUCycles: float64(units) * bfCPUCyclesPerMAC * 2,
		}
		t.Kernel = func(c DeviceCtx) {
			if sig != nil {
				c.ForEachLane(func(tid int) {
					lo, hi := laneUnits(c, width, tid)
					for p := lo; p < hi; p++ {
						var prev float32
						if p > 0 {
							prev = sig[p-1]
						}
						for b := 0; b < bfBeams; b++ {
							out[b*width+p] = wRe[b]*sig[p] - wIm[b]*prev
						}
					}
				})
			}
			chargeWarp(c, units, bfCyclesPerMAC*2, width*4, width*4, 3)
		}
		if opt.Verify {
			t.CPURun = func() { copy(out, bfRef(sig, wRe, wIm, width)) }
			t.Check = func() error { return approxEqual32("BF", out, want, 1e-3) }
		}
		tasks[i] = t
	}
	return tasks
}
