// Package workloads implements the eight benchmarks of the Pagoda paper
// (Table 3/4): Mandelbrot (MB), FilterBank (FB), BeamFormer (BF), Image
// Convolution (CONV), DCT8x8 (DCT), MatrixMul (MM), Sparse LU Decomposition
// (SLUD) and 3DES, plus the Multi-Programmed Environment (MPE) mix.
//
// Each benchmark produces a stream of narrow tasks. Kernels are written
// against the scheduler-neutral DeviceCtx interface so the same kernel code
// runs under Pagoda, CUDA-HyperQ, GeMTC and static fusion. Kernels do two
// things:
//
//   - charge simulated cycles/bytes through the DeviceCtx cost ops, scaled by
//     the task's input size and thread count ("the amount of work per task
//     remains constant in all thread configurations", Fig. 7); and
//   - optionally perform the real computation on Go slices (Options.Verify),
//     validated against the host reference implementations in tests.
package workloads

import (
	"fmt"

	"repro/internal/prng"
)

// DeviceCtx is the device-side API a task kernel needs. gpu.Task, which
// every scheme hands its task kernels (core.TaskCtx under Pagoda), is the
// implementation.
type DeviceCtx interface {
	// Geometry.
	Threads() int     // threads per threadblock
	Blocks() int      // threadblocks in the task
	BlockIdx() int    // this warp's threadblock
	WarpInBlock() int // warp index within the threadblock
	ForEachLane(fn func(tid int))

	// Cost charging.
	Compute(cycles float64)
	GlobalRead(bytes int)
	GlobalWrite(bytes int)
	SharedRead(bytes int)
	SharedWrite(bytes int)

	// CUDA functionality.
	SyncBlock()
	HasShared() bool
	Shared() []byte

	Args() any
}

// TaskDef is one narrow task instance.
type TaskDef struct {
	Name   string
	Kernel func(DeviceCtx)

	Threads   int // threads per threadblock
	Blocks    int
	SharedMem int // bytes per threadblock
	Sync      bool
	ArgBytes  int
	// Regs is the kernel's register count per thread (Table 3's "Default
	// Register Count"); baselines launch with it, while Pagoda caps all task
	// kernels at 32 via -maxrregcount.
	Regs int

	InBytes  int // host->device input copy for this task
	OutBytes int // device->host output copy

	// CPUCycles is the task's cost on one CPU core (PThreads baseline).
	CPUCycles float64
	// CPURun optionally performs the real computation for the CPU baseline.
	CPURun func()
	// Check verifies results after the run (Options.Verify only).
	Check func() error
}

// Options parameterizes task-set generation.
type Options struct {
	Tasks   int
	Threads int // threads per threadblock (0 = benchmark default)
	// Verify enables real computation and Check functions. Timing-only runs
	// (Verify=false) charge identical simulated costs.
	Verify bool
	// Irregular draws input sizes pseudo-randomly (the §6.3 experiment);
	// otherwise every task gets the Table 3 input size.
	Irregular bool
	// UseShared selects the shared-memory kernel variants (DCT, MM).
	UseShared bool
	// InputSize overrides the Table 3 per-task input edge length (Fig. 8
	// sweeps 16..256 for MM and CONV). 0 keeps the default.
	InputSize int
	Seed      int64
}

func (o Options) threads(def int) int {
	if o.Threads > 0 {
		return o.Threads
	}
	return def
}

// Benchmark describes one paper workload.
type Benchmark struct {
	Name           string // Table 3 abbreviation
	SupportsShared bool   // "May benefit from Shared Memory"
	Make           func(opt Options) []TaskDef
}

// All returns the eight Table 3 benchmarks in paper order.
func All() []Benchmark {
	return []Benchmark{
		Mandelbrot(),
		FilterBank(),
		BeamFormer(),
		Convolution(),
		DCT8x8(),
		MatrixMul(),
		SparseLU(),
		TripleDESBench(),
	}
}

// ML returns the ML inference microkernels (transformer layer and GEMM
// chain). They are listed separately from All() — which stays the paper's
// Table 3 set — and are reachable through ByName like every other benchmark.
func ML() []Benchmark {
	return []Benchmark{
		TransformerLayer(),
		GEMMChain(),
	}
}

// ByName looks a benchmark up by its Table 3 abbreviation (MB, FB, BF, CONV,
// DCT, MM, SLUD, 3DES), MPE, or an ML microkernel name (XFMR, GEMM).
func ByName(name string) (Benchmark, error) {
	if name == "MPE" {
		return MPEBench(), nil
	}
	for _, b := range All() {
		if b.Name == name {
			return b, nil
		}
	}
	for _, b := range ML() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// rangeInt draws a value in [lo, hi] for input-size choices.
func rangeInt(x *prng.Xorshift, lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + x.Intn(hi-lo+1)
}

// ceilDiv is a small helper shared by the kernels.
func ceilDiv(a, b int) int { return (a + b - 1) / b }
