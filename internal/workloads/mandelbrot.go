package workloads

import "repro/internal/prng"

// Mandelbrot (MB): each task renders one 64x64 tile of the Mandelbrot set
// ("each pixel value of the image is calculated in parallel; however, the
// required computation per pixel is highly irregular", Table 4). The
// per-pixel escape iteration count varies with the tile's position, which is
// the source of the benchmark's irregularity.

// mbEscape returns the escape iteration for point (cr, ci).
func mbEscape(cr, ci float64, maxIter int) int {
	var zr, zi float64
	for it := 0; it < maxIter; it++ {
		zr2, zi2 := zr*zr, zi*zi
		if zr2+zi2 > 4 {
			return it
		}
		zr, zi = zr2-zi2+cr, 2*zr*zi+ci
	}
	return maxIter
}

// mbTile renders a dim x dim tile whose origin in the complex plane is
// (x0, y0) with the given pixel step, returning iteration counts.
func mbTile(x0, y0, step float64, dim, maxIter int) []int {
	out := make([]int, dim*dim)
	for y := 0; y < dim; y++ {
		for x := 0; x < dim; x++ {
			out[y*dim+x] = mbEscape(x0+float64(x)*step, y0+float64(y)*step, maxIter)
		}
	}
	return out
}

// mbTileIters returns the total iteration count of a tile — the task's true
// work, used for cost charging and for the CPU baseline.
func mbTileIters(x0, y0, step float64, dim, maxIter int) int {
	total := 0
	for y := 0; y < dim; y++ {
		for x := 0; x < dim; x++ {
			total += mbEscape(x0+float64(x)*step, y0+float64(y)*step, maxIter) + 1
		}
	}
	return total
}

// Mandelbrot returns the MB benchmark.
func Mandelbrot() Benchmark {
	return Benchmark{
		Name: "MB",
		Make: makeMB,
	}
}

func makeMB(opt Options) []TaskDef {
	rng := prng.New(opt.Seed)
	threads := opt.threads(128)
	tasks := make([]TaskDef, opt.Tasks)
	for i := range tasks {
		dim := 64
		if opt.InputSize > 0 {
			dim = opt.InputSize
		}
		if opt.Irregular {
			dim = 16 << uint(rangeInt(rng, 1, 3)) // 32..128
		}
		pixels := dim * dim

		// Tiles tile an interesting region around the set's boundary so the
		// per-tile work genuinely varies.
		x0 := -2.0 + 2.5*rng.Float01()
		y0 := -1.25 + 2.5*rng.Float01()
		step := 2.5 / 4096

		// True work: exact in verify mode; a cheap boundary-dependent
		// estimate otherwise (sampling one row keeps generation fast).
		var iters int
		if opt.Verify {
			iters = mbTileIters(x0, y0, step, dim, mbMaxIter)
		} else {
			row := mbTileIters(x0, y0, step*float64(dim), 8, mbMaxIter)
			iters = row * pixels / 64
		}

		var out, want []int
		if opt.Verify {
			out = make([]int, pixels)
			want = mbTile(x0, y0, step, dim, mbMaxIter)
		}

		t := TaskDef{
			Name:      "MB",
			Threads:   opt.pickThreads(threads, pixels, 64*64),
			Blocks:    1,
			ArgBytes:  48,
			Regs:      28,
			InBytes:   64, // tile descriptor only
			OutBytes:  pixels * 2,
			CPUCycles: float64(iters) * mbCPUCyclesPerIter,
		}
		t.Kernel = func(c DeviceCtx) {
			if out != nil {
				c.ForEachLane(func(tid int) {
					lo, hi := laneUnits(c, pixels, tid)
					for p := lo; p < hi; p++ {
						y, x := p/dim, p%dim
						out[p] = mbEscape(x0+float64(x)*step, y0+float64(y)*step, mbMaxIter)
					}
				})
			}
			// Work per lane is proportional to the tile's iteration count;
			// SIMT divergence inside the warp wastes lanes, captured by a
			// 1.6x divergence penalty on the irregular escape loop.
			chargeWarp(c, iters, mbCyclesPerIter*1.6, 64, pixels*2, 3)
		}
		if opt.Verify {
			t.Check = func() error { return equalInts("MB", out, want) }
		}
		tasks[i] = t
	}
	return tasks
}
