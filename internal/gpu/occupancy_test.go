package gpu

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestPaperSection2Occupancy(t *testing.T) {
	cfg := TitanX()
	// "Consider a scenario of narrow tasks, where one task has 256 threads,
	// or 8 warps. If only one task is executed at a time, the occupancy would
	// be (8/(64x24))x100% = 0.52%."
	one := NarrowTaskOccupancy(cfg, 256, 1)
	if math.Abs(one*100-0.52) > 0.01 {
		t.Errorf("1 task occupancy = %.4f%%, paper says 0.52%%", one*100)
	}
	// "With HyperQ ... (8x32/(64x24))x100% = 16.67%."
	hq := NarrowTaskOccupancy(cfg, 256, 32)
	if math.Abs(hq*100-16.67) > 0.01 {
		t.Errorf("32 task occupancy = %.4f%%, paper says 16.67%%", hq*100)
	}
}

func TestNarrowTaskOccupancyCaps(t *testing.T) {
	cfg := TitanX()
	if got := NarrowTaskOccupancy(cfg, 1024, 10000); got != 1.0 {
		t.Errorf("occupancy should cap at 1.0, got %v", got)
	}
}

func TestMasterKernelIs100PercentOccupancy(t *testing.T) {
	// The Pagoda MasterKernel: 2 TBs/SMM x 1024 threads, 32KB shared, 32
	// regs/thread must achieve 100% occupancy (§4.1).
	cfg := TitanX()
	occ := TheoreticalOccupancy(cfg, LaunchSpec{
		BlockThreads: 1024, SharedPerTB: 32 * 1024, RegsPerThread: 32,
	})
	if occ.TBsPerSMM != 2 {
		t.Fatalf("TBsPerSMM = %d, want 2", occ.TBsPerSMM)
	}
	if occ.Fraction != 1.0 {
		t.Fatalf("Fraction = %v, want 1.0", occ.Fraction)
	}
}

func TestOccupancyLimitedByThreads(t *testing.T) {
	cfg := TitanX()
	occ := TheoreticalOccupancy(cfg, LaunchSpec{BlockThreads: 1024, RegsPerThread: 32})
	if occ.TBsPerSMM != 2 || occ.LimitedBy != "thread slots" {
		t.Fatalf("occ = %+v, want 2 TBs limited by thread slots", occ)
	}
}

func TestOccupancyLimitedBySharedMem(t *testing.T) {
	cfg := TitanX()
	occ := TheoreticalOccupancy(cfg, LaunchSpec{
		BlockThreads: 64, SharedPerTB: 24 * 1024, RegsPerThread: 32,
	})
	// 96KB / 24KB = 4 TBs, 8 warps => 12.5%.
	if occ.TBsPerSMM != 4 || occ.LimitedBy != "shared memory" {
		t.Fatalf("occ = %+v, want 4 TBs limited by shared memory", occ)
	}
	if math.Abs(occ.Fraction-8.0/64.0) > 1e-9 {
		t.Fatalf("Fraction = %v, want 0.125", occ.Fraction)
	}
}

func TestOccupancyLimitedByRegisters(t *testing.T) {
	cfg := TitanX()
	occ := TheoreticalOccupancy(cfg, LaunchSpec{BlockThreads: 256, RegsPerThread: 128})
	// regs/TB = 128*256 = 32768; 65536/32768 = 2 TBs (vs 8 by threads).
	if occ.TBsPerSMM != 2 || occ.LimitedBy != "registers" {
		t.Fatalf("occ = %+v, want 2 TBs limited by registers", occ)
	}
}

func TestOccupancyTBSlotLimit(t *testing.T) {
	cfg := TitanX()
	occ := TheoreticalOccupancy(cfg, LaunchSpec{BlockThreads: 32, RegsPerThread: 16})
	if occ.TBsPerSMM != 32 || occ.LimitedBy != "threadblock slots" {
		t.Fatalf("occ = %+v, want 32 TBs limited by TB slots", occ)
	}
	if math.Abs(occ.Fraction-0.5) > 1e-9 {
		t.Fatalf("Fraction = %v: 32 single-warp TBs should give 50%%", occ.Fraction)
	}
}

func TestBarrierReuseGenerations(t *testing.T) {
	eng := sim.New()
	b := NewBarrier(2)
	var order []int
	for i := 0; i < 2; i++ {
		i := i
		eng.Spawn("w", func(p *sim.Proc) {
			for round := 0; round < 3; round++ {
				p.Sleep(sim.Time(10 * (i + 1)))
				b.Arrive(p)
				order = append(order, round)
			}
		})
	}
	eng.Run()
	// Rounds must be in non-decreasing pairs: 0,0,1,1,2,2.
	want := []int{0, 0, 1, 1, 2, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("barrier rounds = %v, want %v", order, want)
		}
	}
}

func TestBarrierResetPanicsWhileInUse(t *testing.T) {
	eng := sim.New()
	b := NewBarrier(2)
	eng.Spawn("w", func(p *sim.Proc) { b.Arrive(p) })
	eng.Spawn("resetter", func(p *sim.Proc) {
		p.Sleep(1)
		defer func() {
			if recover() == nil {
				t.Error("Reset on in-use barrier did not panic")
			}
		}()
		b.Reset(3)
	})
	eng.RunUntil(10)
}

func TestAtomicSiteSerializes(t *testing.T) {
	eng := sim.New()
	site := NewAtomicSite(eng, 100)
	var finish []sim.Time
	for i := 0; i < 4; i++ {
		eng.Spawn("a", func(p *sim.Proc) {
			site.Do(p)
			finish = append(finish, eng.Now())
		})
	}
	eng.Run()
	want := []sim.Time{100, 200, 300, 400}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish times = %v, want %v (FIFO serialization)", finish, want)
		}
	}
	if site.Ops != 4 {
		t.Errorf("Ops = %d, want 4", site.Ops)
	}
}
