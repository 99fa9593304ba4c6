package core

import (
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/pcie"
	"repro/internal/sim"
)

func TestDefaultConfigForGeometries(t *testing.T) {
	titan := DefaultConfigFor(gpu.TitanX())
	if titan.SharedPerMTB != 32*1024 {
		t.Fatalf("Titan X arena = %d, want the paper's 32 KB", titan.SharedPerMTB)
	}
	k40 := DefaultConfigFor(gpu.TeslaK40())
	if k40.SharedPerMTB != 16*1024 {
		t.Fatalf("K40 arena = %d, want 16 KB (48 KB SMX split across 2 MTBs + structures)", k40.SharedPerMTB)
	}
}

// TestPagodaOnTeslaK40 runs the full runtime on the paper's second
// architecture: the MasterKernel must still own every warp and tasks with
// shared memory and barriers must execute correctly.
func TestPagodaOnTeslaK40(t *testing.T) {
	eng := sim.New()
	gcfg := gpu.TeslaK40()
	gcfg.NumSMMs = 3 // small K40 slice for test speed
	dev := gpu.NewDevice(eng, gcfg)
	bus := pcie.New(eng, pcie.Default())
	ctx := cuda.NewContext(eng, dev, bus, cuda.DefaultConfig())
	rt := NewRuntime(ctx, DefaultConfigFor(gcfg))

	// The MasterKernel must reach MTBsPerSMM residency on the K40 too.
	occ := gpu.TheoreticalOccupancy(gcfg, gpu.LaunchSpec{
		BlockThreads: 1024, SharedPerTB: rt.Cfg.SharedPerMTB, RegsPerThread: 32,
	})
	if occ.TBsPerSMM < 2 || occ.Fraction != 1.0 {
		t.Fatalf("K40 MasterKernel occupancy = %+v, want 2 TBs at 100%%", occ)
	}

	ran := 0
	runHost(t, eng, rt, func(p *sim.Proc) {
		for i := 0; i < 80; i++ {
			sm := 0
			if i%3 == 0 {
				sm = 4096
			}
			sync := i%2 == 0
			rt.TaskSpawn(p, TaskSpec{
				Threads: 96, Blocks: 1, SharedMem: sm, Sync: sync,
				Kernel: func(tc *TaskCtx) {
					tc.Compute(500)
					tc.GlobalRead(1024)
					if tc.HasShared() {
						s := tc.Shared()
						s[0] = 1
						tc.SharedWrite(64)
					}
					if sync {
						tc.SyncBlock()
					}
					if tc.WarpInBlock() == 0 {
						ran++
					}
				},
			})
		}
		rt.WaitAll(p)
	})
	if ran != 80 {
		t.Fatalf("K40 completed %d of 80 tasks", ran)
	}
}

// TestK40ArenaRejectsOversizeTask checks validation against the smaller
// arena.
func TestK40ArenaRejectsOversizeTask(t *testing.T) {
	eng := sim.New()
	gcfg := gpu.TeslaK40()
	gcfg.NumSMMs = 1
	dev := gpu.NewDevice(eng, gcfg)
	bus := pcie.New(eng, pcie.Default())
	ctx := cuda.NewContext(eng, dev, bus, cuda.DefaultConfig())
	rt := NewRuntime(ctx, DefaultConfigFor(gcfg))
	runHost(t, eng, rt, func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("24KB shared-memory task accepted on a 16KB-arena K40")
			}
		}()
		rt.TaskSpawn(p, TaskSpec{Threads: 32, Blocks: 1, SharedMem: 24 * 1024,
			Kernel: func(tc *TaskCtx) {}})
	})
}
