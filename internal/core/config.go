// Package core implements Pagoda, the paper's contribution: a GPU runtime
// system that virtualizes GPU resources with a persistent MasterKernel and
// schedules narrow tasks at warp granularity.
//
// The package follows the paper's structure:
//
//   - TaskTable (§4.2): a CPU/GPU-mirrored table that lets the CPU spawn
//     tasks and the GPU schedule them simultaneously with minimal PCIe
//     handshaking, using the ready-field state machine of Fig. 2 and
//     pipelined single-memcpy spawning.
//   - MasterKernel (§4.1): 2 threadblocks (MTBs) of 1024 threads per SMM at
//     32 registers/thread — 100% occupancy. Warp 0 of each MTB is the
//     scheduler warp (Algorithm 1), warps 1..31 are executor warps.
//   - WarpTable (Table 2): per-MTB bookkeeping of executor warps, filled in
//     parallel by pSched (Algorithm 2).
//   - Shared-memory buddy allocator (§5.1) and sub-threadblock named
//     barriers (§5.2).
//
// Host-side API (Table 1): TaskSpawn, Wait, WaitAll, Check. Device-side API:
// TaskCtx.ForEachLane (getTid), SyncBlock (syncBlock), Shared (getSMPtr).
package core

import (
	"math"

	"repro/internal/gpu"
	"repro/internal/sim"
)

// Config holds the Pagoda runtime parameters. Defaults reproduce the paper's
// Titan X configuration.
type Config struct {
	// Rows is the number of TaskTable rows per MTB column ("Pagoda uses 32
	// TaskTable rows per MTB").
	Rows int
	// MTBsPerSMM is the number of MasterKernel threadblocks per SMM (2 on
	// the Titan X: 2 x 32 warps = all 64 warps).
	MTBsPerSMM int
	// WarpsPerMTB is the MTB width in warps (32: 1 scheduler + 31 executors).
	WarpsPerMTB int
	// SharedPerMTB is the shared-memory arena each MTB manages (32 KB).
	SharedPerMTB int
	// MinAllocBlock is the buddy allocator granularity (512 B).
	MinAllocBlock int
	// NumBarriers is the PTX named-barrier pool size per MTB (16).
	NumBarriers int
	// RegsPerThread is the MasterKernel register cap (-maxrregcount=32).
	RegsPerThread int

	// EntryBytes is the fixed TaskTable-entry size copied per spawn,
	// excluding kernel arguments.
	EntryBytes int

	// SchedulerWakeDelay models the average delay between device-memory
	// state becoming visible and the polling scheduler warp observing it.
	SchedulerWakeDelay sim.Time
	// ScanCost is the issue cost of one scheduler sweep over its column.
	ScanCost float64
	// WaitPollInterval is the host-side wait()/waitAll() timeout after which
	// a TaskTable copy-back is forced (§4.2, "these functions therefore use
	// a timeout").
	WaitPollInterval sim.Time

	// Batching, when true, disables continuous spawning: TaskSpawn blocks
	// new work until the previous batch of BatchSize tasks has completed.
	// This is the "Pagoda-Batching" ablation of Fig. 11.
	Batching  bool
	BatchSize int

	// IsolateKernelPanics makes a panicking task kernel fail only that task
	// (recorded in Stats.Failed and reported via Runtime.OnTaskFault)
	// instead of crashing the whole runtime. A warp whose kernel faults
	// mid-barrier can still wedge its threadblock, exactly as on real
	// hardware.
	IsolateKernelPanics bool
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		Rows:               32,
		MTBsPerSMM:         2,
		WarpsPerMTB:        32,
		SharedPerMTB:       32 * 1024,
		MinAllocBlock:      512,
		NumBarriers:        16,
		RegsPerThread:      32,
		EntryBytes:         128,
		SchedulerWakeDelay: 250,
		ScanCost:           6,
		WaitPollInterval:   20000, // 20 us
		BatchSize:          1536,  // one full TaskTable
	}
}

// DefaultConfigFor adapts the default configuration to a device geometry:
// the MTB shared-memory arena shrinks so that MTBsPerSMM MasterKernel
// threadblocks still fit the SMM with room left for the scheduling
// structures (on a 48 KB/SMX Tesla K40 the arena drops to 16 KB; the Titan X
// keeps the paper's 32 KB).
func DefaultConfigFor(dev gpu.Config) Config {
	cfg := DefaultConfig()
	budget := dev.SharedPerSMM / cfg.MTBsPerSMM
	arena := cfg.SharedPerMTB
	for arena+arena/2 > budget && arena > 2*cfg.MinAllocBlock {
		arena /= 2 // keep ~1/3 of the budget for scheduling structures
	}
	if arena > dev.MaxSharedPerTB {
		arena = dev.MaxSharedPerTB
	}
	cfg.SharedPerMTB = arena
	return cfg
}

// ExecutorWarpsPerMTB returns WarpsPerMTB-1 (warp 0 is the scheduler).
func (c Config) ExecutorWarpsPerMTB() int { return c.WarpsPerMTB - 1 }

func (c Config) validate() {
	switch {
	case c.Rows <= 0, c.MTBsPerSMM <= 0, c.WarpsPerMTB < 2:
		panic("core: invalid Pagoda geometry")
	case c.NumBarriers <= 0:
		panic("core: need at least one named barrier")
	case c.NumBarriers > math.MaxInt8:
		panic("core: more named barriers than a WarpTable slot can name")
	case c.SharedPerMTB < c.MinAllocBlock:
		panic("core: shared arena smaller than allocation granularity")
	case !buddyShapeOK(c.SharedPerMTB, c.MinAllocBlock):
		// Checked here because an MTB builds its allocator on first use.
		panic("core: buddy arena and min block must be powers of two, arena >= minBlock")
	}
}
