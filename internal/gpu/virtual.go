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

// DefaultOversub is the zorua scheme's default oversubscription factor: 1.5x
// on every virtualized resource, matching the moderate-oversubscription
// regime the Zorua papers evaluate.
const DefaultOversub = 1.5

// virtualCaps returns the virtual per-SMM capacities: every physical
// capacity scaled by factor (thread slots scale both the thread and
// warp-context limits, two views of the same execution contexts). A factor
// <= 1 leaves the capacities physical.
func virtualCaps(cfg Config, factor float64) occCaps {
	p := physCaps(cfg)
	if factor <= 1 {
		return p
	}
	scale := func(phys int) int { return int(float64(phys) * factor) }
	return occCaps{
		tbs:     scale(p.tbs),
		threads: scale(p.threads),
		warps:   scale(p.warps),
		shared:  scale(p.shared),
		regs:    scale(p.regs),
	}
}

// Coordinator is the runtime piece of the virtualization model: it accounts
// the spill traffic generated when live demand exceeds physical capacity.
// Device.Virtualize installs one together with the virtual capacities the
// dispatcher admits against.
type Coordinator struct {
	// SpilledTBs counts threadblocks admitted past physical capacity.
	SpilledTBs int //pagoda:allow unused the zorua spill tests (TestVirtualizeAdmitsPastPhysicalAndChargesSpill) read it; a future probe
	// SpillBytes is the total register+shared state moved to the backing
	// store on their behalf.
	SpillBytes int //pagoda:allow unused TestVirtualizeAdmitsPastPhysicalAndChargesSpill reads it; a future probe
	// SpillCycles is the total swap delay charged, in cycles.
	SpillCycles float64 //pagoda:allow unused TestVirtualizeAdmitsPastPhysicalAndChargesSpill reads it; a future probe
}

// admit accounts one threadblock's placement on an SMM whose usage counters
// already include it, returning the swap delay its warps must pay before
// executing: DefaultSpillCyclesPerKB per KB of register/shared state beyond
// the physical capacity attributable to this threadblock.
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
	d := sim.Time(DefaultSpillCyclesPerKB * float64(bytes) / 1024)
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
