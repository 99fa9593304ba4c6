package gpu

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// TestInvalidOccupancyInputs pins the degenerate-input fix: zero-thread
// blocks and zero-warp geometries used to panic (division by zero) or return
// Fraction NaN. They must instead report a zero Occupancy with LimitedBy
// "invalid spec".
func TestInvalidOccupancyInputs(t *testing.T) {
	valid := TitanX()
	noWarps := valid
	noWarps.WarpsPerSMM = 0
	noSIMT := valid
	noSIMT.ThreadsPerWarp = 0
	cases := []struct {
		name string
		cfg  Config
		spec LaunchSpec
	}{
		{"zero BlockThreads", valid, LaunchSpec{BlockThreads: 0, RegsPerThread: 32}},
		{"negative BlockThreads", valid, LaunchSpec{BlockThreads: -64, RegsPerThread: 32}},
		{"zero WarpsPerSMM", noWarps, LaunchSpec{BlockThreads: 128, RegsPerThread: 32}},
		{"zero ThreadsPerWarp", noSIMT, LaunchSpec{BlockThreads: 128, RegsPerThread: 32}},
		{"negative RegsPerThread", valid, LaunchSpec{BlockThreads: 128, RegsPerThread: -8}},
		{"zero config", Config{}, LaunchSpec{BlockThreads: 128}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			occ := TheoreticalOccupancy(c.cfg, c.spec)
			if occ.TBsPerSMM != 0 || occ.WarpsPerSMM != 0 || occ.Fraction != 0 {
				t.Errorf("occ = %+v, want zero occupancy", occ)
			}
			if math.IsNaN(occ.Fraction) {
				t.Errorf("Fraction is NaN")
			}
			if occ.LimitedBy != "invalid spec" {
				t.Errorf("LimitedBy = %q, want %q", occ.LimitedBy, "invalid spec")
			}
			vocc := occupancyAgainst(c.cfg, c.spec, virtualCaps(c.cfg, DefaultOversub))
			if vocc != occ {
				t.Errorf("virtual occupancy = %+v, want %+v on invalid input", vocc, occ)
			}
		})
	}
}

// TestNarrowTaskOccupancyDegenerate pins the same fix for the §2 helper: a
// zero-warp config or non-positive task shape returns 0, never NaN.
func TestNarrowTaskOccupancyDegenerate(t *testing.T) {
	noWarps := TitanX()
	noWarps.WarpsPerSMM = 0
	cases := []struct {
		name           string
		cfg            Config
		threads, tasks int
	}{
		{"zero config", Config{}, 256, 32},
		{"zero WarpsPerSMM", noWarps, 256, 32},
		{"zero threads", TitanX(), 0, 32},
		{"zero concurrent", TitanX(), 256, 0},
		{"negative threads", TitanX(), -1, 32},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := NarrowTaskOccupancy(c.cfg, c.threads, c.tasks)
			if got != 0 || math.IsNaN(got) {
				t.Errorf("NarrowTaskOccupancy = %v, want 0", got)
			}
		})
	}
}

// TestVirtualOccupancyReducesAtUnity is the acceptance pin: at factor 1.0
// (or 0) the virtual occupancy must equal
// TheoreticalOccupancy exactly, field for field, across representative specs.
func TestVirtualOccupancyReducesAtUnity(t *testing.T) {
	cfg := TitanX()
	specs := []LaunchSpec{
		{BlockThreads: 1024, SharedPerTB: 32 * 1024, RegsPerThread: 32}, // MasterKernel
		{BlockThreads: 1024, RegsPerThread: 32},                         // thread-slot bound
		{BlockThreads: 64, SharedPerTB: 24 * 1024, RegsPerThread: 32},   // shared bound
		{BlockThreads: 256, RegsPerThread: 128},                         // register bound
		{BlockThreads: 32, RegsPerThread: 16},                           // TB-slot bound
		{BlockThreads: 128, RegsPerThread: 32},                          // the narrow-task shape
	}
	for _, factor := range []float64{0, 1} {
		for _, spec := range specs {
			want := TheoreticalOccupancy(cfg, spec)
			got := occupancyAgainst(cfg, spec, virtualCaps(cfg, factor))
			if got != want {
				t.Errorf("spec %+v: virtual occupancy(%v) = %+v, want TheoreticalOccupancy %+v",
					spec, factor, got, want)
			}
		}
	}
}

// TestVirtualOccupancyOversubscribes checks the model's point: scaling the
// capacities admits more threadblocks, and the Fraction denominator stays
// physical so oversubscription is visible as Fraction > 1.
func TestVirtualOccupancyOversubscribes(t *testing.T) {
	cfg := TitanX()
	// Shared-memory-bound spec: physically 4 TBs (96KB/24KB), 12.5% occupancy.
	spec := LaunchSpec{BlockThreads: 64, SharedPerTB: 24 * 1024, RegsPerThread: 32}
	occ := occupancyAgainst(cfg, spec, virtualCaps(cfg, 2.0))
	if occ.TBsPerSMM != 8 || occ.LimitedBy != "shared memory" {
		t.Fatalf("occ = %+v, want 8 TBs still limited by shared memory at 2x", occ)
	}
	if math.Abs(occ.Fraction-16.0/64.0) > 1e-9 {
		t.Fatalf("Fraction = %v, want 0.25", occ.Fraction)
	}

	// Thread-slot-bound spec at 1.5x: 2048*1.5/1024 = 3 TBs, 96 warps > the
	// physical 64 contexts — Fraction exceeds 1.
	wide := LaunchSpec{BlockThreads: 1024, RegsPerThread: 16}
	occ = occupancyAgainst(cfg, wide, virtualCaps(cfg, 1.5))
	if occ.TBsPerSMM != 3 || occ.WarpsPerSMM != 96 {
		t.Fatalf("occ = %+v, want 3 TBs / 96 warps at 1.5x", occ)
	}
	if math.Abs(occ.Fraction-1.5) > 1e-9 {
		t.Fatalf("Fraction = %v, want 1.5 (resident contexts / physical)", occ.Fraction)
	}
}

// TestVirtualizeAdmitsPastPhysicalAndChargesSpill runs a real device: a
// latency-bound kernel whose blocks each claim 48KB shared memory fits 2 per
// SMM physically; at 2x oversubscription all 4 are admitted at once
// and the coordinator charges spill for the overflow. Because the warps
// spend their time stalled on global memory (idle issue slots), the extra
// residency hides latency and the oversubscribed run finishes strictly
// earlier despite the spill price; the ledger records the spilled bytes.
func TestVirtualizeAdmitsPastPhysicalAndChargesSpill(t *testing.T) {
	cfg := TitanX()
	cfg.NumSMMs = 1
	run := func(factor float64) (sim.Time, *Coordinator) {
		eng := sim.New()
		dev := NewDevice(eng, cfg)
		var co *Coordinator
		if factor > 1 {
			co = dev.Virtualize(factor)
		}
		spec := LaunchSpec{
			Name: "sh", GridDim: 4, BlockThreads: 64, SharedPerTB: 48 * 1024,
			RegsPerThread: 32,
			Fn: func(ctx *Ctx) {
				for i := 0; i < 256; i++ { // pointer-chase: latency-bound
					ctx.GlobalRead(4)
				}
			},
		}
		k := dev.Launch(spec)
		eng.Run()
		return k.EndTime, co
	}
	baseEnd, _ := run(1)
	virtEnd, co := run(2)
	if virtEnd >= baseEnd {
		t.Errorf("virtualized end %v not earlier than static end %v", virtEnd, baseEnd)
	}
	if co.SpilledTBs != 2 {
		t.Errorf("SpilledTBs = %d, want 2 (blocks 3 and 4 overflow the 96KB SMM)", co.SpilledTBs)
	}
	if want := 2 * 48 * 1024; co.SpillBytes != want {
		t.Errorf("SpillBytes = %d, want %d", co.SpillBytes, want)
	}
	if co.SpillCycles <= 0 {
		t.Errorf("SpillCycles = %v, want > 0", co.SpillCycles)
	}
}

// TestVirtualizeAtUnityIsInert pins that installing a coordinator with
// factor 1 changes nothing: admission stays physical and no spill is
// ever charged.
func TestVirtualizeAtUnityIsInert(t *testing.T) {
	cfg := TitanX()
	cfg.NumSMMs = 2
	run := func(virtualize bool) sim.Time {
		eng := sim.New()
		dev := NewDevice(eng, cfg)
		var co *Coordinator
		if virtualize {
			co = dev.Virtualize(1)
		}
		k := dev.Launch(LaunchSpec{
			Name: "u", GridDim: 16, BlockThreads: 128, RegsPerThread: 32,
			Fn: func(ctx *Ctx) { ctx.Compute(5_000) },
		})
		eng.Run()
		if virtualize && (co.SpilledTBs != 0 || co.SpillBytes != 0 || co.SpillCycles != 0) {
			t.Errorf("unity coordinator charged spill: %+v", co)
		}
		return k.EndTime
	}
	if a, b := run(false), run(true); a != b {
		t.Errorf("unity-virtualized end %v != static end %v", b, a)
	}
}

// TestVirtualizeRejectsUnscalableFactor: a factor that is not finite, or
// that scales a per-SMM capacity past the largest int (where the float to
// int conversion is implementation-defined, and read -2^63 on amd64),
// panics naming Virtualize and the factor; a large finite one is admitted.
func TestVirtualizeRejectsUnscalableFactor(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
		dev := NewDevice(sim.New(), testCfg())
		mustPanic(t, "gpu: Virtualize: oversubscription factor", func() { dev.Virtualize(f) })
	}
	dev := NewDevice(sim.New(), testCfg())
	dev.Virtualize(1e6)
	if dev.caps.regs != dev.Cfg.RegsPerSMM*1e6 {
		t.Errorf("a 1e6 factor scaled registers to %d, want %d", dev.caps.regs, dev.Cfg.RegsPerSMM*1e6)
	}
}
