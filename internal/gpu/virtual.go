package gpu

import "repro/internal/sim"

// This file models Zorua-style dynamic resource virtualization (Vijaykumar
// et al., "Zorua: A Holistic Approach to Resource Virtualization in GPUs",
// MICRO'16; arXiv 1802.02573 / 1805.02498) as a counterpoint to Pagoda's
// static warp-level reservation. Zorua decouples the resources a threadblock
// is *allocated* from the physical capacity behind them: a runtime
// coordinator admits threadblocks against oversubscribed (virtual) budgets
// and dynamically spills the overflow to a backing store, paying a swap cost
// when live demand exceeds what the hardware actually has.

// DefaultSpillCyclesPerKB prices moving 1 KB of oversubscribed state between
// the register file / shared memory and the backing store: one global
// round-trip (~2x368 cycles latency) amortized over a ~300 B/cycle pipe lands
// in the mid-hundreds of cycles per KB.
const DefaultSpillCyclesPerKB = 512.0

// Oversub holds the per-resource oversubscription factors of the virtualized
// occupancy model. Each factor multiplies the physical per-SMM capacity when
// the coordinator admits threadblocks; values <= 1 (including the zero value)
// leave that resource at its physical size, so the zero Oversub is exactly
// the static hardware model.
type Oversub struct {
	TBSlots     float64 // threadblock slots per SMM
	ThreadSlots float64 // thread/warp contexts per SMM
	Registers   float64 // register file
	SharedMem   float64 // shared memory

	// SpillCyclesPerKB is the cycle cost charged to a threadblock per KB of
	// register/shared state it was admitted beyond physical capacity.
	SpillCyclesPerKB float64
}

// Enabled reports whether any resource is actually oversubscribed.
func (o Oversub) Enabled() bool {
	return o.TBSlots > 1 || o.ThreadSlots > 1 || o.Registers > 1 || o.SharedMem > 1
}

// UniformOversub oversubscribes every virtualized resource by the same
// factor, with the default spill price.
func UniformOversub(f float64) Oversub {
	return Oversub{
		TBSlots:          f,
		ThreadSlots:      f,
		Registers:        f,
		SharedMem:        f,
		SpillCyclesPerKB: DefaultSpillCyclesPerKB,
	}
}

// DefaultOversub is the zorua scheme's default operating point: 1.5x on
// every virtualized resource, matching the moderate-oversubscription regime
// the Zorua papers evaluate.
func DefaultOversub() Oversub { return UniformOversub(1.5) }

func scaleCap(phys int, f float64) int {
	if f <= 1 {
		return phys
	}
	return int(float64(phys) * f)
}

// caps returns the virtual per-SMM capacities: physical scaled by the
// factors. ThreadSlots scales both the thread and warp-context limits (they
// are two views of the same execution contexts).
func (o Oversub) caps(cfg Config) occCaps {
	p := physCaps(cfg)
	return occCaps{
		tbs:     scaleCap(p.tbs, o.TBSlots),
		threads: scaleCap(p.threads, o.ThreadSlots),
		warps:   scaleCap(p.warps, o.ThreadSlots),
		shared:  scaleCap(p.shared, o.SharedMem),
		regs:    scaleCap(p.regs, o.Registers),
	}
}

// Coordinator is the runtime piece of the virtualization model: it owns the
// virtual capacities the dispatcher admits against and accounts the spill
// traffic generated when live demand exceeds physical capacity. Install one
// on a Device with Virtualize.
type Coordinator struct {
	ov   Oversub
	caps occCaps

	// SpilledTBs counts threadblocks admitted past physical capacity.
	SpilledTBs int //pagoda:allow unused the zorua spill tests (TestVirtualizeAdmitsPastPhysicalAndChargesSpill) read it; a future probe
	// SpillBytes is the total register+shared state moved to the backing
	// store on their behalf.
	SpillBytes int //pagoda:allow unused TestVirtualizeAdmitsPastPhysicalAndChargesSpill reads it; a future probe
	// SpillCycles is the total swap delay charged, in cycles.
	SpillCycles float64 //pagoda:allow unused TestVirtualizeAdmitsPastPhysicalAndChargesSpill reads it; a future probe
}

// NewCoordinator builds a coordinator for the given geometry and factors.
func NewCoordinator(cfg Config, ov Oversub) *Coordinator {
	return &Coordinator{ov: ov, caps: ov.caps(cfg)}
}

// admit accounts one threadblock's placement on an SMM whose usage counters
// already include it, returning the swap delay its warps must pay before
// executing: SpillCyclesPerKB per KB of register/shared state beyond the
// physical capacity attributable to this threadblock.
func (c *Coordinator) admit(m *SMM, spec LaunchSpec, warps int) sim.Time {
	cfg := m.dev.Cfg
	regs := spec.RegsPerThread * warps * cfg.ThreadsPerWarp
	bytes := 4*overflow(m.usedRegs, cfg.RegsPerSMM, regs) +
		overflow(m.usedShared, cfg.SharedPerSMM, spec.SharedPerTB)
	if bytes == 0 {
		return 0
	}
	c.SpilledTBs++
	c.SpillBytes += bytes
	d := sim.Time(c.ov.SpillCyclesPerKB * float64(bytes) / 1024)
	c.SpillCycles += float64(d)
	return d
}

// overflow returns how much of a newcomer's demand `take` lies beyond the
// physical capacity `phys`, given post-placement usage `used`.
func overflow(used, phys, take int) int {
	over := used - phys
	if over <= 0 {
		return 0
	}
	if over > take {
		over = take
	}
	return over
}
