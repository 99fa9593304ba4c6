package gpu

// Occupancy holds the static occupancy analysis for a launch spec — the
// arithmetic of §2 of the paper.
type Occupancy struct {
	TBsPerSMM   int     // resident threadblocks per SMM
	WarpsPerSMM int     // resident warps per SMM
	Fraction    float64 // resident warps / physical max warps; may exceed 1 under virtualization
	LimitedBy   string  // which resource capped the threadblock count
}

// occCaps are the per-SMM capacities an occupancy computation (and the
// threadblock dispatcher) admits against. TheoreticalOccupancy uses the
// physical capacities; a Coordinator scales them by the Oversub factors.
type occCaps struct {
	tbs     int // threadblock slots
	threads int // resident thread slots
	warps   int // warp contexts
	shared  int // shared-memory bytes
	regs    int // 32-bit registers
}

func physCaps(cfg Config) occCaps {
	return occCaps{
		tbs:     cfg.MaxTBsPerSMM,
		threads: cfg.MaxResidentThreads(),
		warps:   cfg.WarpsPerSMM,
		shared:  cfg.SharedPerSMM,
		regs:    cfg.RegsPerSMM,
	}
}

// invalidOccupancy is the answer for degenerate configs or specs (zero-thread
// blocks, zero-warp geometries): no residency, no NaNs, no panics.
func invalidOccupancy() Occupancy { return Occupancy{LimitedBy: "invalid spec"} }

// occupancyAgainst applies the CUDA occupancy rules — threadblock slots,
// thread slots, shared memory and registers — against the given capacities.
func occupancyAgainst(cfg Config, spec LaunchSpec, caps occCaps) Occupancy {
	if spec.BlockThreads <= 0 || cfg.ThreadsPerWarp <= 0 || cfg.WarpsPerSMM <= 0 || caps.warps <= 0 {
		return invalidOccupancy()
	}
	warpsPerTB := spec.WarpsPerTB(cfg)
	regsPerTB := spec.RegsPerThread * warpsPerTB * cfg.ThreadsPerWarp
	if regsPerTB == 0 {
		regsPerTB = 32 * warpsPerTB * cfg.ThreadsPerWarp
	}
	if regsPerTB <= 0 {
		return invalidOccupancy()
	}

	limit := caps.tbs
	by := "threadblock slots"
	if l := caps.threads / spec.BlockThreads; l < limit {
		limit, by = l, "thread slots"
	}
	if spec.SharedPerTB > 0 {
		if l := caps.shared / spec.SharedPerTB; l < limit {
			limit, by = l, "shared memory"
		}
	}
	if l := caps.regs / regsPerTB; l < limit {
		limit, by = l, "registers"
	}
	if limit < 0 {
		limit = 0
	}
	warps := limit * warpsPerTB
	if warps > caps.warps {
		warps = caps.warps
	}
	return Occupancy{
		TBsPerSMM:   limit,
		WarpsPerSMM: warps,
		Fraction:    float64(warps) / float64(cfg.WarpsPerSMM),
		LimitedBy:   by,
	}
}

// TheoreticalOccupancy computes how many threadblocks of the given spec fit
// on one SMM and the resulting occupancy fraction, applying the CUDA
// occupancy rules: threadblock slots, thread slots, shared memory and
// registers. Degenerate inputs (zero-thread blocks, zero-warp geometries)
// return a zero Occupancy with LimitedBy "invalid spec".
func TheoreticalOccupancy(cfg Config, spec LaunchSpec) Occupancy {
	return occupancyAgainst(cfg, spec, physCaps(cfg))
}

// NarrowTaskOccupancy reproduces the motivating §2 computation: the device
// occupancy when `concurrent` narrow tasks of `threads` threads each run at
// once (e.g. 1 task of 256 threads = 0.52%, 32 tasks = 16.67% on the Titan
// X). Degenerate inputs return 0.
func NarrowTaskOccupancy(cfg Config, threads, concurrent int) float64 {
	if threads <= 0 || concurrent <= 0 || cfg.ThreadsPerWarp <= 0 || cfg.TotalWarps() <= 0 {
		return 0
	}
	warpsPerTask := (threads + cfg.ThreadsPerWarp - 1) / cfg.ThreadsPerWarp
	resident := warpsPerTask * concurrent
	max := cfg.TotalWarps()
	if resident > max {
		resident = max
	}
	return float64(resident) / float64(max)
}
