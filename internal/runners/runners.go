// Package runners executes a stream of narrow tasks under each of the
// paper's five execution schemes and reports comparable timing:
//
//   - Pagoda          — the core runtime (continuous spawning, warp-level
//     scheduling); optionally its Fig. 11 "Pagoda-Batching" ablation.
//   - CUDA-HyperQ     — one kernel per task over 32 streams, bounded by the
//     32-connection HyperQ limit.
//   - GeMTC           — a persistent SuperKernel with a single FIFO task
//     queue and batch-based launching (Krieder et al., HPDC'14).
//   - Static fusion   — all tasks fused into one monolithic kernel with
//     uniform per-subtask resources (§6.3).
//   - PThreads        — a 20-core CPU worker pool (plus a sequential mode).
//
// Every run builds its own engine/device/bus, so runs are independent and
// deterministic. Timing covers data copies and compute, as in the paper's
// Fig. 5 ("the measurement of execution time contains both data copy and
// compute times"); Config.CopyData=false reproduces the compute-only
// comparisons of Fig. 7 and Table 5.
package runners

import (
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Config parameterizes a run.
type Config struct {
	SMMs     int  // device size (default 24)
	CopyData bool // include per-task input/output PCIe copies

	// GeMTCBatch is the FIFO batch size (tasks per SuperKernel launch). The
	// SuperKernel's worker threadblock width is the widest task's thread
	// count (the paper's "modified" GeMTC).
	GeMTCBatch int

	// PagodaBatching enables the Fig. 11 ablation.
	PagodaBatching bool

	// Oversub is the zorua scheme's oversubscription factor, applied to
	// every virtualized resource. Only the zorua runners read it; 0 means
	// the scheme default (gpu.DefaultOversub), while 1 makes zorua admit
	// exactly like the static hardware model.
	Oversub float64
}

// spawners is the number of host threads feeding tasks to the device
// (paper: 2), for Pagoda's feeders and the kernel-per-task closed loop.
const spawners = 2

// DefaultConfig returns the paper's experimental setup.
func DefaultConfig() Config {
	return Config{
		SMMs:       24,
		CopyData:   true,
		GeMTCBatch: 384, // GeMTC's worker count at 128 threads/TB on 24 SMMs
	}
}

// Result reports one run.
type Result struct {
	Elapsed    sim.Time // cycles (1 cycle = 1 ns) from first spawn to all done
	AvgLatency sim.Time // mean per-task spawn-to-completion latency
	MaxLatency sim.Time
	// P50Latency/P90Latency/P99Latency are exact nearest-rank order
	// statistics over the per-task latency vector — the tail the mean hides.
	// Zero for schemes without a per-task latency notion (sequential CPU).
	P50Latency sim.Time
	P90Latency sim.Time
	P99Latency sim.Time
	Occupancy  float64 // mean resident-warp occupancy over the run
	IssueUtil  float64 // fraction of issue slots used
	Tasks      int
}

// system bundles the per-run simulation stack.
type system struct {
	eng *sim.Engine
	dev *gpu.Device
	bus *pcie.Bus
	ctx *cuda.Context
}

func newSystem(cfg Config) *system { return newSystemOn(sim.New(), cfg) }

// newSystemOn builds one device + bus + context stack on an existing engine.
// Single-device runs own their engine (newSystem); cluster runs place N of
// these stacks on one shared engine so the whole fleet advances under a
// single virtual clock.
func newSystemOn(eng *sim.Engine, cfg Config) *system {
	gcfg := gpu.TitanX()
	if cfg.SMMs > 0 {
		gcfg.NumSMMs = cfg.SMMs
	}
	dev := gpu.NewDevice(eng, gcfg)
	bus := pcie.New(eng, pcie.Default())
	ctx := cuda.NewContext(eng, dev, bus, cuda.DefaultConfig())
	return &system{eng: eng, dev: dev, bus: bus, ctx: ctx}
}

// splitRoundRobin deals tasks to n spawners preserving arrival order within
// each spawner.
func splitRoundRobin(tasks []workloads.TaskDef, n int) [][]int {
	parts := make([][]int, n)
	for i := range tasks {
		parts[i%n] = append(parts[i%n], i)
	}
	return parts
}
