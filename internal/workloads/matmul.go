package workloads

import "repro/internal/prng"

// MatrixMul (MM): small dense matrix multiplications, one per task,
// "refactored from the NVIDIA SDK samples ... to simulate the behaviour seen
// in an earthquake engineering simulator" (Table 4). Table 3: 64x64 matrices,
// benefits from shared memory, requires threadblock synchronization.

// mmRef computes C = A x B for n x n float32 matrices.
func mmRef(a, b []float32, n int) []float32 {
	c := make([]float32, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			av := a[i*n+k]
			if av == 0 {
				continue
			}
			row := b[k*n:]
			out := c[i*n:]
			for j := 0; j < n; j++ {
				out[j] += av * row[j]
			}
		}
	}
	return c
}

// MatrixMul returns the MM benchmark.
func MatrixMul() Benchmark {
	return Benchmark{
		Name:           "MM",
		SupportsShared: true,
		Make:           makeMM,
	}
}

func makeMM(opt Options) []TaskDef {
	rng := prng.New(opt.Seed)
	threads := opt.threads(256)
	tasks := make([]TaskDef, opt.Tasks)
	for i := range tasks {
		n := 64
		if opt.InputSize > 0 {
			n = opt.InputSize
		}
		if opt.Irregular {
			n = 8 << uint(rangeInt(rng, 2, 5)) // 32..256
		}
		elems := n * n

		var a, b, out, want []float32
		if opt.Verify {
			a = make([]float32, elems)
			b = make([]float32, elems)
			out = make([]float32, elems)
			for p := 0; p < elems; p++ {
				a[p] = float32(rng.Float01()*2 - 1)
				b[p] = float32(rng.Float01()*2 - 1)
			}
			want = mmRef(a, b, n)
		}

		sharedMem := 0
		if opt.UseShared {
			// Two 16x16 float tiles, as in the SDK kernel.
			sharedMem = 2 * 16 * 16 * 4
		}

		t := TaskDef{
			Name:      "MM",
			Threads:   opt.pickThreads(threads, elems, 64*64),
			Blocks:    1,
			SharedMem: sharedMem,
			Sync:      true,
			ArgBytes:  56,
			Regs:      30,
			InBytes:   2 * elems * 4,
			OutBytes:  elems * 4,
			CPUCycles: float64(elems) * float64(n) * mmCPUCyclesPerMAC,
		}
		useShared := opt.UseShared
		t.Kernel = func(c DeviceCtx) {
			if a != nil {
				c.ForEachLane(func(tid int) {
					lo, hi := laneUnits(c, elems, tid)
					for p := lo; p < hi; p++ {
						i, j := p/n, p%n
						var acc float32
						for k := 0; k < n; k++ {
							acc += a[i*n+k] * b[k*n+j]
						}
						out[p] = acc
					}
				})
			}
			macs := elems * n
			if useShared && c.HasShared() {
				// Tiled multiply: each input element is read from global
				// memory n/16 times instead of n times.
				tiles := ceilDiv(n, 16)
				for t := 0; t < tiles; t++ {
					c.SharedWrite(2 * 16 * 16 * 4)
					c.SyncBlock()
					chargeWarp(c, macs/tiles, mmCyclesPerMAC, 2*elems*4/tiles/4, 0, 1)
					c.SharedRead(2 * 16 * 16 * 4)
					c.SyncBlock()
				}
				c.GlobalWrite(elems * 4 / (ceilDiv(c.Threads(), 32) * c.Blocks()))
			} else {
				// Naive: every k-step re-streams operand rows from global
				// memory with little reuse — the cache catches ~8 of every n
				// passes over the inputs. This redundant traffic (and its
				// issue cost) is exactly what the tiled variant eliminates.
				passes := n / 8
				if passes < 1 {
					passes = 1
				}
				chargeWarp(c, macs, mmCyclesPerMAC, 2*elems*4*passes, elems*4, 6)
				c.SyncBlock()
			}
		}
		if opt.Verify {
			t.Check = func() error { return approxEqual32("MM", out, want, 1e-2) }
		}
		tasks[i] = t
	}
	return tasks
}
