package workloads

import (
	"math"

	"repro/internal/prng"
)

// ML inference microkernels (not part of the paper's Table 3): a
// transformer-layer task (XFMR) and a GEMM-chain MLP task (GEMM), the
// narrow-task shapes of production ML serving ("Analyzing Machine Learning
// Workloads Using a Detailed GPU Simulator", arXiv 1811.08933). One task is
// one request's worth of inference — a single layer over a short token
// sequence — so a serving experiment can offer millions of them per second
// against tenant SLOs. Cost charging follows the costs.go methodology: the
// GEMM stages share MM's per-MAC price, softmax pays a per-element
// transcendental price, and every stage streams its operands through
// chargeWarp at segmentCycles granularity.

// xfmrDModel is the model width d; xfmrFFN the feed-forward hidden width.
// Table-style defaults: d=64, ffn=4d, seq=16 tokens per request.
const (
	xfmrDModel = 64
	xfmrFFN    = 4 * xfmrDModel
	xfmrSeq    = 16
)

// gemmRow computes out = x[row]·W + nothing, for row-major x (·×k), W (k×n).
func gemmRow(x []float32, w []float32, row, k, n int, out []float32) {
	for j := 0; j < n; j++ {
		var acc float32
		for p := 0; p < k; p++ {
			acc += x[row*k+p] * w[p*n+j]
		}
		out[row*n+j] = acc
	}
}

// softmaxRow normalizes s[row*n : row*n+n] in place with the max-subtract
// stabilization every inference kernel uses.
func softmaxRow(s []float32, row, n int) {
	base := row * n
	max := s[base]
	for j := 1; j < n; j++ {
		if s[base+j] > max {
			max = s[base+j]
		}
	}
	var sum float32
	for j := 0; j < n; j++ {
		e := float32(math.Exp(float64(s[base+j] - max)))
		s[base+j] = e
		sum += e
	}
	for j := 0; j < n; j++ {
		s[base+j] /= sum
	}
}

// reluRows applies max(0, x) to rows [lo, hi) of a row-major s×n matrix.
func reluRows(x []float32, lo, hi, n int) {
	for i := lo * n; i < hi*n; i++ {
		if x[i] < 0 {
			x[i] = 0
		}
	}
}

// xfmrRef runs one single-head transformer layer on the host: attention
// (Q/K/V projections, scaled dot-product scores, softmax, context, output
// projection) followed by the two-matmul feed-forward block with ReLU.
func xfmrRef(x, wq, wk, wv, wo, w1, w2 []float32, s, d, f int) []float32 {
	q := make([]float32, s*d)
	k := make([]float32, s*d)
	v := make([]float32, s*d)
	for i := 0; i < s; i++ {
		gemmRow(x, wq, i, d, d, q)
		gemmRow(x, wk, i, d, d, k)
		gemmRow(x, wv, i, d, d, v)
	}
	scale := float32(1 / math.Sqrt(float64(d)))
	att := make([]float32, s*s)
	for i := 0; i < s; i++ {
		for j := 0; j < s; j++ {
			var acc float32
			for p := 0; p < d; p++ {
				acc += q[i*d+p] * k[j*d+p]
			}
			att[i*s+j] = acc * scale
		}
		softmaxRow(att, i, s)
	}
	ctx := make([]float32, s*d)
	for i := 0; i < s; i++ {
		gemmRow(att, v, i, s, d, ctx)
	}
	out := make([]float32, s*d)
	for i := 0; i < s; i++ {
		gemmRow(ctx, wo, i, d, d, out)
	}
	hid := make([]float32, s*f)
	for i := 0; i < s; i++ {
		gemmRow(out, w1, i, d, f, hid)
	}
	reluRows(hid, 0, s, f)
	ffn := make([]float32, s*d)
	for i := 0; i < s; i++ {
		gemmRow(hid, w2, i, f, d, ffn)
	}
	return ffn
}

// xfmrMACs returns the layer's multiply-add count: Q/K/V projections,
// scores, context, output projection and the two FFN matmuls.
func xfmrMACs(s, d, f int) int {
	return 3*s*d*d + s*s*d + s*s*d + s*d*d + 2*s*d*f
}

// randMat fills an n-element float32 slice with values in (-scale, scale).
func randMat(rng *prng.Xorshift, n int, scale float64) []float32 {
	m := make([]float32, n)
	for i := range m {
		m[i] = float32((rng.Float01()*2 - 1) * scale)
	}
	return m
}

// TransformerLayer returns the XFMR benchmark: one single-head transformer
// layer per task over a short token sequence.
func TransformerLayer() Benchmark {
	return Benchmark{
		Name: "XFMR",
		Make: makeXFMR,
	}
}

func makeXFMR(opt Options) []TaskDef {
	rng := prng.New(opt.Seed)
	threads := opt.threads(128)
	d, f := xfmrDModel, xfmrFFN
	tasks := make([]TaskDef, opt.Tasks)
	for i := range tasks {
		s := xfmrSeq
		if opt.InputSize > 0 {
			s = opt.InputSize
		}
		if opt.Irregular {
			s = 8 << uint(rangeInt(rng, 0, 2)) // 8..32 tokens per request
		}
		macs := xfmrMACs(s, d, f)

		var x, wq, wk, wv, wo, w1, w2, out, want []float32
		if opt.Verify {
			scale := 1 / math.Sqrt(float64(d))
			x = randMat(rng, s*d, 1)
			wq = randMat(rng, d*d, scale)
			wk = randMat(rng, d*d, scale)
			wv = randMat(rng, d*d, scale)
			wo = randMat(rng, d*d, scale)
			w1 = randMat(rng, d*f, scale)
			w2 = randMat(rng, f*d, scale)
			out = make([]float32, s*d)
			want = xfmrRef(x, wq, wk, wv, wo, w1, w2, s, d, f)
		}

		t := TaskDef{
			Name:      "XFMR",
			Threads:   opt.pickThreads(threads, s*d, xfmrSeq*d),
			Blocks:    1,
			Sync:      true,
			ArgBytes:  72,
			Regs:      32,
			InBytes:   s * d * 4, // per-request activations; weights are resident
			OutBytes:  s * d * 4,
			CPUCycles: float64(macs)*xfmrCPUCyclesPerMAC + float64(s*s)*softmaxCPUCyclesPerElem,
		}
		t.Kernel = func(c DeviceCtx) {
			verify := x != nil
			var q, k, v, att, ctx, o, hid []float32
			if verify {
				q = make([]float32, s*d)
				k = make([]float32, s*d)
				v = make([]float32, s*d)
				att = make([]float32, s*s)
				ctx = make([]float32, s*d)
				o = make([]float32, s*d)
				hid = make([]float32, s*f)
			}
			// Q/K/V projections: read the request activations plus the three
			// resident projection matrices.
			if verify {
				c.ForEachLane(func(tid int) {
					lo, hi := laneUnits(c, s, tid)
					for i := lo; i < hi; i++ {
						gemmRow(x, wq, i, d, d, q)
						gemmRow(x, wk, i, d, d, k)
						gemmRow(x, wv, i, d, d, v)
					}
				})
			}
			chargeWarp(c, 3*s*d*d, xfmrCyclesPerMAC, s*d*4+3*d*d*4, 3*s*d*4, 2)
			c.SyncBlock()
			// Scaled dot-product scores + softmax, one row per token.
			if verify {
				scale := float32(1 / math.Sqrt(float64(d)))
				c.ForEachLane(func(tid int) {
					lo, hi := laneUnits(c, s, tid)
					for i := lo; i < hi; i++ {
						for j := 0; j < s; j++ {
							var acc float32
							for p := 0; p < d; p++ {
								acc += q[i*d+p] * k[j*d+p]
							}
							att[i*s+j] = acc * scale
						}
						softmaxRow(att, i, s)
					}
				})
			}
			chargeWarp(c, s*s*d, xfmrCyclesPerMAC, 2*s*d*4, s*s*4, 1)
			chargeWarp(c, s*s, softmaxCyclesPerElem, s*s*4, s*s*4, 1)
			c.SyncBlock()
			// Context and output projection.
			if verify {
				c.ForEachLane(func(tid int) {
					lo, hi := laneUnits(c, s, tid)
					for i := lo; i < hi; i++ {
						gemmRow(att, v, i, s, d, ctx)
						gemmRow(ctx, wo, i, d, d, o)
					}
				})
			}
			chargeWarp(c, s*s*d+s*d*d, xfmrCyclesPerMAC, s*s*4+s*d*4+d*d*4, s*d*4, 1)
			c.SyncBlock()
			// Feed-forward block: two matmuls through the resident FFN
			// weights with ReLU between — the chain's heavy half.
			if verify {
				c.ForEachLane(func(tid int) {
					lo, hi := laneUnits(c, s, tid)
					for i := lo; i < hi; i++ {
						gemmRow(o, w1, i, d, f, hid)
					}
					reluRows(hid, lo, hi, f)
				})
				c.SyncBlock()
				c.ForEachLane(func(tid int) {
					lo, hi := laneUnits(c, s, tid)
					for i := lo; i < hi; i++ {
						gemmRow(hid, w2, i, f, d, out)
					}
				})
			} else {
				c.SyncBlock()
			}
			chargeWarp(c, 2*s*d*f, xfmrCyclesPerMAC, 2*d*f*4+s*d*4, s*d*4, 2)
			c.SyncBlock()
		}
		if opt.Verify {
			t.CPURun = func() { copy(out, xfmrRef(x, wq, wk, wv, wo, w1, w2, s, d, f)) }
			t.Check = func() error { return approxEqual32("XFMR", out, want, 1e-2) }
		}
		tasks[i] = t
	}
	return tasks
}

// gemmChainDims are the MLP chain's layer widths: a batch of token rows
// passes 64 -> 128 -> 128 -> 64 with ReLU between layers.
var gemmChainDims = [4]int{64, 128, 128, 64}

// gemmChainRef runs the host reference: out = relu(relu(x·W0)·W1)·W2.
func gemmChainRef(x []float32, ws [3][]float32, m int) []float32 {
	cur := x
	for l := 0; l < 3; l++ {
		k, n := gemmChainDims[l], gemmChainDims[l+1]
		next := make([]float32, m*n)
		for i := 0; i < m; i++ {
			gemmRow(cur, ws[l], i, k, n, next)
		}
		if l < 2 {
			reluRows(next, 0, m, n)
		}
		cur = next
	}
	return cur
}

// gemmChainMACs returns the chain's multiply-add count for an m-row batch.
func gemmChainMACs(m int) int {
	macs := 0
	for l := 0; l < 3; l++ {
		macs += m * gemmChainDims[l] * gemmChainDims[l+1]
	}
	return macs
}

// GEMMChain returns the GEMM benchmark: a three-layer MLP inference chain
// per task (small GEMMs back to back, the non-attention half of ML serving).
func GEMMChain() Benchmark {
	return Benchmark{
		Name: "GEMM",
		Make: makeGEMMChain,
	}
}

func makeGEMMChain(opt Options) []TaskDef {
	rng := prng.New(opt.Seed)
	threads := opt.threads(128)
	tasks := make([]TaskDef, opt.Tasks)
	for i := range tasks {
		m := xfmrSeq // batch rows per request
		if opt.InputSize > 0 {
			m = opt.InputSize
		}
		if opt.Irregular {
			m = 8 << uint(rangeInt(rng, 0, 2)) // 8..32 rows
		}
		macs := gemmChainMACs(m)

		var x []float32
		var ws [3][]float32
		var out, want []float32
		if opt.Verify {
			x = randMat(rng, m*gemmChainDims[0], 1)
			for l := 0; l < 3; l++ {
				ws[l] = randMat(rng, gemmChainDims[l]*gemmChainDims[l+1], 1/math.Sqrt(float64(gemmChainDims[l])))
			}
			out = make([]float32, m*gemmChainDims[3])
			want = gemmChainRef(x, ws, m)
		}

		t := TaskDef{
			Name:      "GEMM",
			Threads:   opt.pickThreads(threads, m*gemmChainDims[0], xfmrSeq*gemmChainDims[0]),
			Blocks:    1,
			Sync:      true,
			ArgBytes:  48,
			Regs:      30,
			InBytes:   m * gemmChainDims[0] * 4,
			OutBytes:  m * gemmChainDims[3] * 4,
			CPUCycles: float64(macs) * xfmrCPUCyclesPerMAC,
		}
		t.Kernel = func(c DeviceCtx) {
			verify := x != nil
			var acts [4][]float32
			if verify {
				acts[0] = x
				for l := 1; l < 4; l++ {
					acts[l] = make([]float32, m*gemmChainDims[l])
				}
			}
			for l := 0; l < 3; l++ {
				k, n := gemmChainDims[l], gemmChainDims[l+1]
				if verify {
					l := l
					c.ForEachLane(func(tid int) {
						lo, hi := laneUnits(c, m, tid)
						for i := lo; i < hi; i++ {
							gemmRow(acts[l], ws[l], i, k, n, acts[l+1])
						}
						if l < 2 {
							reluRows(acts[l+1], lo, hi, n)
						}
					})
				}
				chargeWarp(c, m*k*n, xfmrCyclesPerMAC, m*k*4+k*n*4, m*n*4, 1)
				c.SyncBlock()
			}
			if verify {
				c.ForEachLane(func(tid int) {
					lo, hi := laneUnits(c, m, tid)
					copy(out[lo*gemmChainDims[3]:hi*gemmChainDims[3]], acts[3][lo*gemmChainDims[3]:hi*gemmChainDims[3]])
				})
			}
		}
		if opt.Verify {
			t.CPURun = func() { copy(out, gemmChainRef(x, ws, m)) }
			t.Check = func() error { return approxEqual32("GEMM", out, want, 1e-2) }
		}
		tasks[i] = t
	}
	return tasks
}
