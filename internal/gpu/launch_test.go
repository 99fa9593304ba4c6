package gpu

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

// TestLaunchAllocationsPinned pins what a kernel launch allocates once the
// engine's event pool and the worker coroutines are warm: the Kernel (which
// holds a single threadblock inline), the threadblock array of a wider grid,
// one warp array per threadblock (each warp's Proc and Ctx live in it), and
// for a block that syncs, its barrier's waiter storage, sized once.
func TestLaunchAllocationsPinned(t *testing.T) {
	for _, tc := range []struct {
		grid, threads int
		sync          bool
		want          float64
	}{
		{grid: 1, threads: 32, want: 2},              // Kernel + warps
		{grid: 1, threads: 128, want: 2},             // 4 warps, still one array
		{grid: 1, threads: 64, sync: true, want: 2},  // 2 warps: the waiter is held inline
		{grid: 1, threads: 128, sync: true, want: 3}, // + barrier waiters
		{grid: 4, threads: 128, want: 6},             // + threadblock array, 4 warp arrays
		{grid: 4, threads: 128, sync: true, want: 10},
	} {
		t.Run(fmt.Sprintf("grid%d_threads%d_sync%v", tc.grid, tc.threads, tc.sync), func(t *testing.T) {
			eng := sim.New()
			t.Cleanup(eng.Close)
			dev := NewDevice(eng, testCfg())
			spec := LaunchSpec{Name: "pin", GridDim: tc.grid, BlockThreads: tc.threads}
			spec.Fn = func(c *Ctx) {
				c.Compute(4)
				if tc.sync {
					var task Task
					task.Bind(c, 1, 0, nil)
					task.SyncBlock()
				}
			}
			got := testing.AllocsPerRun(20, func() {
				dev.Launch(spec)
				eng.Run()
			})
			if got != tc.want {
				warps := tc.grid * spec.WarpsPerTB(dev.Cfg)
				t.Errorf("launch allocates %v (%.2f per warp over %d warps), want %v",
					got, got/float64(warps), warps, tc.want)
			}
		})
	}
}

// TestBarrierGenerationAllocatesNothing: a reused Barrier keeps its waiter
// storage, so a steady-state generation allocates nothing.
func TestBarrierGenerationAllocatesNothing(t *testing.T) {
	eng := sim.New()
	t.Cleanup(eng.Close)
	b := new(Barrier)
	b.Reset(4)
	var gate sim.Signal
	for i := 0; i < 4; i++ {
		eng.Spawn("w", func(p *sim.Proc) {
			for {
				b.Arrive(p)
				gate.Wait(p)
			}
		})
	}
	eng.Run()
	if a := testing.AllocsPerRun(50, func() {
		gate.Broadcast()
		eng.Run()
	}); a != 0 {
		t.Errorf("barrier generation: %v allocs, want 0", a)
	}
	if gate.Waiting() != 4 {
		t.Fatalf("%d warps back at the gate, want 4", gate.Waiting())
	}
}

// TestWarpNames pins the diagnostic name of a warp process,
// "<kernel>/tb<block>/w<warp>", where it is read: BlockedProcs for a parked
// warp and the engine's panic for a mis-armed one.
func TestWarpNames(t *testing.T) {
	eng := sim.New()
	t.Cleanup(eng.Close)
	dev := NewDevice(eng, testCfg())
	var never sim.Signal
	dev.Launch(LaunchSpec{
		Name: "park", GridDim: 2, BlockThreads: 96,
		Fn: func(c *Ctx) {
			if c.BlockIdx == 1 && c.WarpInBlock == 2 {
				never.Wait(c.Proc())
			}
		},
	})
	eng.Run()
	if got, want := eng.BlockedProcs(), []string{"park/tb1/w2"}; !slices.Equal(got, want) {
		t.Errorf("BlockedProcs = %q, want %q", got, want)
	}

	eng2 := sim.New()
	t.Cleanup(eng2.Close)
	dev2 := NewDevice(eng2, testCfg())
	dev2.Launch(LaunchSpec{
		Name: "mis", GridDim: 1, BlockThreads: 64,
		Fn: func(c *Ctx) {
			if c.WarpInBlock == 1 {
				// Arm the parked warp a second time from the event loop.
				eng2.Schedule(1, func() { c.Proc().Sleep(1) })
				var never sim.Signal
				never.Wait(c.Proc())
			}
		},
	})
	defer func() {
		if got, want := recover(), `sim: proc "mis/tb0/w1" armed twice`; got != want {
			t.Errorf("panic = %v, want %q", got, want)
		}
	}()
	eng2.Run()
}
