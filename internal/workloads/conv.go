package workloads

import "repro/internal/prng"

// Image convolution (CONV): 5x5 stencil over a dim x dim float32 image, one
// image per task ("Convolution filters are used in blur and edge detection
// mechanisms; each filter operation represents a task", Table 4). Default
// input 128x128 per Table 3.

// conv5x5Kernel is a normalized blur stencil.
var conv5x5Kernel = func() [25]float32 {
	var k [25]float32
	weights := [5]float32{1, 4, 6, 4, 1}
	var sum float32
	for y := 0; y < 5; y++ {
		for x := 0; x < 5; x++ {
			k[y*5+x] = weights[y] * weights[x]
			sum += k[y*5+x]
		}
	}
	for i := range k {
		k[i] /= sum
	}
	return k
}()

// convRef computes the reference convolution with clamped borders.
func convRef(in []float32, dim int) []float32 {
	out := make([]float32, dim*dim)
	clamp := func(v int) int {
		if v < 0 {
			return 0
		}
		if v >= dim {
			return dim - 1
		}
		return v
	}
	for y := 0; y < dim; y++ {
		for x := 0; x < dim; x++ {
			var acc float32
			for ky := -2; ky <= 2; ky++ {
				for kx := -2; kx <= 2; kx++ {
					acc += in[clamp(y+ky)*dim+clamp(x+kx)] * conv5x5Kernel[(ky+2)*5+(kx+2)]
				}
			}
			out[y*dim+x] = acc
		}
	}
	return out
}

// convPixel computes one output pixel (shared by device and CPU paths).
func convPixel(in []float32, dim, idx int) float32 {
	y, x := idx/dim, idx%dim
	clamp := func(v int) int {
		if v < 0 {
			return 0
		}
		if v >= dim {
			return dim - 1
		}
		return v
	}
	var acc float32
	for ky := -2; ky <= 2; ky++ {
		for kx := -2; kx <= 2; kx++ {
			acc += in[clamp(y+ky)*dim+clamp(x+kx)] * conv5x5Kernel[(ky+2)*5+(kx+2)]
		}
	}
	return acc
}

// Convolution returns the CONV benchmark.
func Convolution() Benchmark {
	return Benchmark{
		Name: "CONV",
		Make: makeConv,
	}
}

func makeConv(opt Options) []TaskDef {
	rng := prng.New(opt.Seed)
	threads := opt.threads(128)
	tasks := make([]TaskDef, opt.Tasks)
	for i := range tasks {
		dim := 128
		if opt.InputSize > 0 {
			dim = opt.InputSize
		}
		if opt.Irregular {
			dim = 1 << uint(rangeInt(rng, 5, 8)) // 32..256 per side
		}
		pixels := dim * dim

		var in, out, want []float32
		if opt.Verify {
			in = make([]float32, pixels)
			out = make([]float32, pixels)
			for p := range in {
				in[p] = float32(rng.Float01())
			}
			want = convRef(in, dim)
		}

		t := TaskDef{
			Name:      "CONV",
			Threads:   opt.pickThreads(threads, pixels, 128*128),
			Blocks:    1,
			ArgBytes:  48,
			Regs:      25,
			InBytes:   pixels * 4,
			OutBytes:  pixels * 4,
			CPUCycles: float64(pixels) * convCPUCyclesPerPixel,
		}
		t.Kernel = func(c DeviceCtx) {
			if in != nil {
				c.ForEachLane(func(tid int) {
					lo, hi := laneUnits(c, pixels, tid)
					for p := lo; p < hi; p++ {
						out[p] = convPixel(in, dim, p)
					}
				})
			}
			chargeWarp(c, pixels, convCyclesPerPixel, pixels*4, pixels*4, 4)
		}
		if opt.Verify {
			t.CPURun = func() {
				for p := 0; p < pixels; p++ {
					out[p] = convPixel(in, dim, p)
				}
			}
			t.Check = func() error {
				return approxEqual32("CONV", out, want, 1e-4)
			}
		}
		tasks[i] = t
	}
	return tasks
}
