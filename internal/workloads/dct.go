package workloads

import (
	"math"

	"repro/internal/prng"
)

// DCT8x8 (DCT): the CUDA SDK 8x8 discrete cosine transform applied to every
// 8x8 block of a dim x dim image; one image per task ("online surveillance
// systems gather image streams from multiple cameras ... processing each
// image represents a narrow task"). Table 3: 128x128 images, benefits from
// shared memory, requires threadblock synchronization.

// dctCoeff is the 8x8 DCT-II coefficient matrix C (out = C * X * C^T).
var dctCoeff = func() [64]float32 {
	var c [64]float32
	for k := 0; k < 8; k++ {
		a := math.Sqrt(0.25)
		if k == 0 {
			a = math.Sqrt(0.125)
		}
		for n := 0; n < 8; n++ {
			c[k*8+n] = float32(a * math.Cos(math.Pi*float64(2*n+1)*float64(k)/16))
		}
	}
	return c
}()

// dct8x8Block transforms one 8x8 block: out = C * X * C^T.
func dct8x8Block(in []float32, stride int, out []float32) {
	var tmp [64]float32
	// tmp = C * X
	for k := 0; k < 8; k++ {
		for x := 0; x < 8; x++ {
			var acc float32
			for n := 0; n < 8; n++ {
				acc += dctCoeff[k*8+n] * in[n*stride+x]
			}
			tmp[k*8+x] = acc
		}
	}
	// out = tmp * C^T
	for k := 0; k < 8; k++ {
		for l := 0; l < 8; l++ {
			var acc float32
			for x := 0; x < 8; x++ {
				acc += tmp[k*8+x] * dctCoeff[l*8+x]
			}
			out[k*8+l] = acc
		}
	}
}

// dctRef transforms every 8x8 block of a dim x dim image.
func dctRef(in []float32, dim int) []float32 {
	out := make([]float32, dim*dim)
	var block [64]float32
	for by := 0; by < dim; by += 8 {
		for bx := 0; bx < dim; bx += 8 {
			dct8x8Block(in[by*dim+bx:], dim, block[:])
			for y := 0; y < 8; y++ {
				copy(out[(by+y)*dim+bx:(by+y)*dim+bx+8], block[y*8:y*8+8])
			}
		}
	}
	return out
}

// DCT8x8 returns the DCT benchmark.
func DCT8x8() Benchmark {
	return Benchmark{
		Name:           "DCT",
		SupportsShared: true,
		Make:           makeDCT,
	}
}

func makeDCT(opt Options) []TaskDef {
	rng := prng.New(opt.Seed)
	threads := opt.threads(64)
	tasks := make([]TaskDef, opt.Tasks)
	for i := range tasks {
		dim := 128
		if opt.InputSize > 0 {
			dim = opt.InputSize
		}
		if opt.Irregular {
			dim = 8 << uint(rangeInt(rng, 2, 5)) // 32..256
		}
		pixels := dim * dim
		blocks8 := (dim / 8) * (dim / 8)

		var in, out, want []float32
		if opt.Verify {
			in = make([]float32, pixels)
			out = make([]float32, pixels)
			for p := range in {
				in[p] = float32(rng.Float01()*255 - 128)
			}
			want = dctRef(in, dim)
		}

		sharedMem := 0
		if opt.UseShared {
			// Stage a tile of 8x8 blocks in shared memory, as the SDK kernel
			// does: one row of blocks (dim x 8 floats), capped to the arena.
			sharedMem = dim * 8 * 4
			if sharedMem > 16*1024 {
				sharedMem = 16 * 1024
			}
		}

		t := TaskDef{
			Name:      "DCT",
			Threads:   opt.pickThreads(threads, pixels, 128*128),
			Blocks:    1,
			SharedMem: sharedMem,
			Sync:      true,
			ArgBytes:  48,
			Regs:      33,
			InBytes:   pixels * 4,
			OutBytes:  pixels * 4,
			CPUCycles: float64(pixels) * dctCPUCyclesPerPixel,
		}
		useShared := opt.UseShared
		t.Kernel = func(c DeviceCtx) {
			if in != nil {
				c.ForEachLane(func(tid int) {
					lo, hi := laneUnits(c, blocks8, tid)
					bw := dim / 8
					var blk [64]float32
					for b := lo; b < hi; b++ {
						by, bx := (b/bw)*8, (b%bw)*8
						dct8x8Block(in[by*dim+bx:], dim, blk[:])
						for y := 0; y < 8; y++ {
							copy(out[(by+y)*dim+bx:(by+y)*dim+bx+8], blk[y*8:y*8+8])
						}
					}
				})
			}
			if useShared && c.HasShared() {
				// Stage rows through shared memory: pay shared traffic but
				// halve the global read volume (the SDK optimization).
				c.SharedWrite(len(c.Shared()) / 4)
				chargeWarp(c, pixels, dctCyclesPerPixel*0.7, pixels*2, pixels*4, 4)
				c.SyncBlock()
				c.SharedRead(len(c.Shared()) / 4)
			} else {
				chargeWarp(c, pixels, dctCyclesPerPixel, pixels*4, pixels*4, 4)
				c.SyncBlock()
			}
		}
		if opt.Verify {
			t.CPURun = func() { copy(out, dctRef(in, dim)) }
			t.Check = func() error { return approxEqual32("DCT", out, want, 1e-3) }
		}
		tasks[i] = t
	}
	return tasks
}
