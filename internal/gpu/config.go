// Package gpu models a CUDA-class GPU as a deterministic discrete-event
// simulation: streaming multiprocessors (SMMs) with a processor-sharing
// instruction-issue engine, fixed-latency memory operations, and a
// threadblock dispatcher that enforces CUDA occupancy rules (resident
// threadblock, thread, shared-memory and register limits).
//
// The default geometry mirrors the NVIDIA Maxwell Titan X used in the Pagoda
// paper (PPoPP'17): 24 SMMs, 64 warps per SMM, 96 KB shared memory and 64K
// registers per SMM, 4 warp-instructions issued per cycle per SMM.
//
// Time is measured in core clock cycles; at the Titan X's 1 GHz, one cycle is
// one nanosecond.
package gpu

// Config describes the simulated device geometry and latency model.
type Config struct {
	// Geometry.
	NumSMMs          int // streaming multiprocessors
	WarpsPerSMM      int // max resident warps per SMM
	ThreadsPerWarp   int // SIMT width
	MaxTBsPerSMM     int // max resident threadblocks per SMM
	MaxThreadsPerTB  int // CUDA limit (1024)
	SharedPerSMM     int // bytes of shared memory per SMM
	MaxSharedPerTB   int // bytes of shared memory one threadblock may request
	RegsPerSMM       int // 32-bit registers per SMM
	MaxRegsPerThread int // compiler cap (-maxrregcount upper bound)

	// Issue model.
	IssueWidth float64 // warp-instructions per cycle per SMM

	// Latency model, in cycles.
	GlobalLatency       float64 // global (device) memory access latency
	SharedLatency       float64 // shared memory access latency
	AtomicSharedLatency float64 // shared-memory atomic service time
	AtomicGlobalLatency float64 // global-memory atomic service time
	FenceCost           float64 // __threadfence()
	FenceBlockCost      float64 // __threadfence_block()
	BarrierCost         float64 // bar.sync arrival overhead

	// CoalesceBytes is the size of one memory transaction; a warp access of
	// n bytes issues ceil(n/CoalesceBytes) transactions.
	CoalesceBytes int

	// MemBandwidth is the device-memory bandwidth in bytes per cycle,
	// shared by all in-flight global accesses (Titan X: 336 GB/s ≈ 336
	// B/cycle at 1 GHz; ~300 effective). This is what makes on-chip data
	// reuse through shared memory pay off — without a bandwidth cap,
	// latency hiding would make redundant global traffic free.
	MemBandwidth float64
}

// TitanX returns the Maxwell Titan X geometry used throughout the paper.
func TitanX() Config {
	return Config{
		NumSMMs:             24,
		WarpsPerSMM:         64,
		ThreadsPerWarp:      32,
		MaxTBsPerSMM:        32,
		MaxThreadsPerTB:     1024,
		SharedPerSMM:        96 * 1024,
		MaxSharedPerTB:      48 * 1024,
		RegsPerSMM:          64 * 1024,
		MaxRegsPerThread:    255,
		IssueWidth:          4,
		GlobalLatency:       368,
		SharedLatency:       24,
		AtomicSharedLatency: 32,
		AtomicGlobalLatency: 220,
		FenceCost:           120,
		FenceBlockCost:      24,
		BarrierCost:         16,
		CoalesceBytes:       128,
		MemBandwidth:        300,
	}
}

// TeslaK40 returns the Kepler Tesla K40 geometry — the second architecture
// the paper validated the TaskTable's CPU/GPU visibility behaviour on
// ("extensive micro-benchmarking ... on two GPU architectures, Tesla K40 and
// Maxwell Titan X", §4.2).
func TeslaK40() Config {
	return Config{
		NumSMMs:             15, // SMX units
		WarpsPerSMM:         64,
		ThreadsPerWarp:      32,
		MaxTBsPerSMM:        16,
		MaxThreadsPerTB:     1024,
		SharedPerSMM:        48 * 1024,
		MaxSharedPerTB:      48 * 1024,
		RegsPerSMM:          64 * 1024,
		MaxRegsPerThread:    255,
		IssueWidth:          4,
		GlobalLatency:       430,
		SharedLatency:       28,
		AtomicSharedLatency: 40,
		AtomicGlobalLatency: 280,
		FenceCost:           140,
		FenceBlockCost:      28,
		BarrierCost:         18,
		CoalesceBytes:       128,
		MemBandwidth:        240, // 288 GB/s peak, ~240 effective at 0.745->1 GHz norm
	}
}

// MaxResidentThreads returns the per-SMM thread limit implied by the warp
// count.
func (c Config) MaxResidentThreads() int { return c.WarpsPerSMM * c.ThreadsPerWarp }

// TotalWarps returns the device-wide resident warp capacity (the occupancy
// denominator: 64 x #SMMs on the Titan X).
func (c Config) TotalWarps() int { return c.NumSMMs * c.WarpsPerSMM }

// Validate panics if the configuration is internally inconsistent; it is
// called by NewDevice.
func (c Config) Validate() {
	switch {
	case c.NumSMMs <= 0, c.WarpsPerSMM <= 0, c.ThreadsPerWarp <= 0:
		panic("gpu: non-positive geometry")
	case c.IssueWidth <= 0:
		panic("gpu: non-positive issue width")
	case c.MaxThreadsPerTB > c.MaxResidentThreads():
		panic("gpu: threadblock larger than an SMM")
	case c.MaxSharedPerTB > c.SharedPerSMM:
		panic("gpu: per-TB shared memory exceeds SMM shared memory")
	case c.CoalesceBytes <= 0:
		panic("gpu: non-positive coalesce size")
	case c.MemBandwidth <= 0:
		panic("gpu: non-positive memory bandwidth")
	}
}
