package workloads

// Cost model. Kernels charge simulated cycles through chargeWarp; the
// constants below set each benchmark's arithmetic intensity (GPU issue
// cycles per work unit per lane) and the CPU-side equivalent used by the
// PThreads baseline.
//
// The CPU constants fold in the superscalar/SIMD advantage of a Xeon core
// over a single GPU lane: regular streaming workloads vectorize well
// (cpuOps ~ gpu/5), while branchy, irregular ones (Mandelbrot, 3DES S-box
// lookups) do not (cpuOps ~ gpu/1.5). See DESIGN.md §4 on calibration and
// EXPERIMENTS.md for the resulting paper-vs-measured comparison.
const (
	// Mandelbrot: cycles per escape-loop iteration.
	mbCyclesPerIter    = 9.0
	mbCPUCyclesPerIter = 6.0
	mbMaxIter          = 256

	// FilterBank: cycles per filter tap per sample.
	fbTaps            = 32
	fbCyclesPerTap    = 2.2
	fbCPUCyclesPerTap = 1.8

	// BeamFormer: cycles per sample per beam accumulation.
	bfBeams           = 16
	bfCyclesPerMAC    = 2.0
	bfCPUCyclesPerMAC = 1.2

	// Convolution: cycles per pixel (5x5 stencil).
	convCyclesPerPixel    = 32.0
	convCPUCyclesPerPixel = 38.0

	// DCT8x8: cycles per pixel (two 8-tap passes).
	dctCyclesPerPixel    = 20.0
	dctCPUCyclesPerPixel = 21.0

	// MatrixMul: cycles per output element per K-step.
	mmCyclesPerMAC    = 1.1
	mmCPUCyclesPerMAC = 1.1

	// Sparse LU: cycles per element of a 32x32 block operation.
	sludCyclesPerUnit    = 24.0
	sludCPUCyclesPerUnit = 4.0

	// 3DES: cycles per 8-byte block (T-table style implementation).
	desCyclesPerBlock    = 260.0
	desCPUCyclesPerBlock = 480.0

	// Transformer layer (XFMR): the attention and
	// feed-forward projections run on the same multiply-add engine as MM, so
	// they share its per-MAC cost; softmax pays a transcendental (exp) plus a
	// running max/sum per score element, which vectorizes poorly on the CPU.
	xfmrCyclesPerMAC        = 1.1
	xfmrCPUCyclesPerMAC     = 1.1
	softmaxCyclesPerElem    = 12.0
	softmaxCPUCyclesPerElem = 16.0
)

// segmentCycles is the compute run length between consecutive global memory
// accesses in a kernel's inner loop. Real narrow-task kernels touch memory
// every few hundred cycles, which is what makes warp occupancy matter: an
// SMM with few resident warps cannot hide the exposed latency. (Large values
// here would let even 2-3 warps saturate an SMM and erase the paper's
// HyperQ-underutilization effect.)
const segmentCycles = 400

// maxSegments bounds simulation event counts for very heavy tasks.
const maxSegments = 192

// chargeWarp charges one warp's share of a task's simulated cost: the
// per-thread work (lanes run in lockstep, so a warp's latency is one
// thread's work) interleaved with the warp's share of the task's global
// memory traffic at segmentCycles granularity.
func chargeWarp(c DeviceCtx, totalUnits int, cyclesPerUnit float64, rdBytes, wrBytes, chunks int) {
	threadsTotal := c.Threads() * c.Blocks()
	perThread := ceilDiv(totalUnits, threadsTotal)
	warps := ceilDiv(c.Threads(), 32) * c.Blocks()
	total := float64(perThread) * cyclesPerUnit
	if chunks < 1 {
		chunks = 1
	}
	if byLen := int(total / segmentCycles); byLen > chunks {
		chunks = byLen
	}
	if chunks > maxSegments {
		chunks = maxSegments
	}
	compute := total / float64(chunks)
	rd := rdBytes / warps / chunks
	for i := 0; i < chunks; i++ {
		if rd > 0 {
			c.GlobalRead(rd)
		} else {
			// Kernels stream their working set even when the task's input
			// copy is accounted elsewhere: charge a cached-line touch.
			c.GlobalRead(128)
		}
		c.Compute(compute)
	}
	if wr := wrBytes / warps; wr > 0 {
		c.GlobalWrite(wr)
	}
}

// laneUnits splits totalUnits across the task's threads and returns the
// half-open unit range [lo, hi) owned by thread tid of block blockIdx —
// the standard grid-stride ownership used by all verify-mode kernels.
func laneUnits(c DeviceCtx, totalUnits, tid int) (lo, hi int) {
	threadsTotal := c.Threads() * c.Blocks()
	global := c.BlockIdx()*c.Threads() + tid
	per := ceilDiv(totalUnits, threadsTotal)
	lo = global * per
	hi = lo + per
	if lo > totalUnits {
		lo = totalUnits
	}
	if hi > totalUnits {
		hi = totalUnits
	}
	return lo, hi
}
