package gpu

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

// TestLaunchAllocationsPinned pins what a kernel launch allocates once the
// engine's event pool, the worker coroutines and the device's free lists are
// warm: the Kernel, which holds a single threadblock inline, and for that
// block, if it syncs, its barrier's waiter storage, sized once. The warps
// (each warp's Proc and Ctx) are the last launch's, and a wider grid reuses
// the last one's threadblock array, barriers' waiter storage included.
//
// A cold launch, the first on a fresh device with no warps of closed
// engines to draw on, also allocates its threadblock array, the device's
// dispatch queue and the SMMs' issue-share request storage, and its warps:
// one array for every warp the dispatch starts, however many blocks it
// places (a block per array would cost the 32-block grid 31 more
// allocations and the OnDemand grid 3 more). The cold cases empty the
// process-wide warp list first, so what earlier tests closed moves no
// count.
func TestLaunchAllocationsPinned(t *testing.T) {
	for _, tc := range []struct {
		grid, threads  int
		sync, onDemand bool
		cold           bool
		want           float64
	}{
		{grid: 1, threads: 32, want: 1},              // Kernel
		{grid: 1, threads: 128, want: 1},             // 4 warps, all reused
		{grid: 1, threads: 64, sync: true, want: 1},  // 2 warps: the waiter is held inline
		{grid: 1, threads: 128, sync: true, want: 2}, // + barrier waiters
		{grid: 4, threads: 128, want: 1},             // threadblock array reused
		{grid: 4, threads: 128, sync: true, want: 1}, // and its barriers' waiters
		{grid: 4, threads: 128, cold: true, want: 14},
		{grid: 32, threads: 128, cold: true, want: 23},                 // 128 warps in one array
		{grid: 4, threads: 1024, onDemand: true, cold: true, want: 10}, // warp 0 of each block
	} {
		name := fmt.Sprintf("grid%d_threads%d_sync%v", tc.grid, tc.threads, tc.sync)
		if tc.onDemand {
			name += "_ondemand"
		}
		if tc.cold {
			name += "_cold"
		}
		t.Run(name, func(t *testing.T) {
			eng := sim.New()
			t.Cleanup(eng.Close)
			dev := NewDevice(eng, testCfg())
			spec := LaunchSpec{Name: "pin", GridDim: tc.grid, BlockThreads: tc.threads, OnDemand: tc.onDemand}
			spec.Fn = func(c *Ctx) {
				c.Compute(4)
				if tc.sync {
					task := c.Task()
					task.Bind(c, 1, 0)
					task.SyncBlock()
				}
			}
			var got float64
			if tc.cold {
				takeRecycled()
				device := testing.AllocsPerRun(20, func() { NewDevice(eng, testCfg()) })
				got = testing.AllocsPerRun(20, func() {
					NewDevice(eng, testCfg()).Launch(spec)
					eng.Run()
				}) - device
			} else {
				got = testing.AllocsPerRun(20, func() {
					dev.Launch(spec)
					eng.Run()
				})
			}
			if got != tc.want {
				warps := tc.grid * spec.WarpsPerTB(dev.Cfg)
				t.Errorf("launch allocates %v (%.2f per warp over %d warps), want %v",
					got, got/float64(warps), warps, tc.want)
			}
		})
	}
}

// TestRelaunchReusesWarpsAndThreadblocks: a launch after a finished one of
// the same shape on the same device runs on the first launch's warps and
// threadblock array, allocating neither, and ends each warp at the instant
// the same launch ends it on a fresh device. Each warp's Ctx, and so the
// Task it binds, lives in the warp, so its address names the warp. The
// grid is wider than the device holds at once, so the first launch already
// reuses the warps of its own early blocks.
func TestRelaunchReusesWarpsAndThreadblocks(t *testing.T) {
	type run struct {
		ctxs []*Ctx
		ends []sim.Time
	}
	launch := func(dev *Device, r *run) *Kernel {
		spec := LaunchSpec{Name: "again", GridDim: 6, BlockThreads: 96, SharedPerTB: 40 << 10}
		spec.Fn = func(c *Ctx) {
			r.ctxs = append(r.ctxs, c)
			task := c.Task()
			task.Bind(c, 1, 0)
			task.Compute(float64(10*c.BlockIdx + 3*c.WarpInBlock))
			task.SyncBlock()
			task.GlobalRead(256)
			task.Drain()
			r.ends = append(r.ends, c.Now())
		}
		return dev.Launch(spec)
	}
	eng := sim.New()
	t.Cleanup(eng.Close)
	dev := NewDevice(eng, testCfg())
	var first, second run
	launch(dev, &first)
	eng.Run()
	warps := make(map[*Ctx]bool)
	for _, c := range first.ctxs {
		warps[c] = true
	}
	if len(warps) >= len(first.ctxs) {
		t.Fatalf("the first launch ran %d warps on %d, want fewer: its blocks did not queue", len(first.ctxs), len(warps))
	}
	if n := freeWarps(dev); n != len(warps) || dev.spareTBs == nil {
		t.Fatalf("%d warps and threadblock array %v spare after the first launch, want %d and one",
			n, dev.spareTBs != nil, len(warps))
	}
	spare := &dev.spareTBs[0]
	start := eng.Now()
	k := launch(dev, &second)
	if &k.tbs[0] != spare {
		t.Error("the second launch allocated a threadblock array")
	}
	eng.Run()
	for _, c := range second.ctxs {
		if !warps[c] {
			t.Fatalf("the second launch allocated a warp (its Ctx at %p)", c)
		}
	}
	if n := freeWarps(dev); n != len(warps) {
		t.Fatalf("%d warps free after the second launch, want %d", n, len(warps))
	}

	fresh := sim.New()
	t.Cleanup(fresh.Close)
	freshDev := NewDevice(fresh, testCfg())
	var want run
	fresh.ScheduleAt(start, func() { launch(freshDev, &want) })
	fresh.Run()
	if !slices.Equal(second.ends, want.ends) {
		t.Fatalf("warps end at %v on reused warps, %v on a fresh device", second.ends, want.ends)
	}
}

// freeWarps counts the device's free list.
func freeWarps(d *Device) int {
	n := 0
	for w := d.free; w != nil; w = w.ctx.w {
		n++
	}
	return n
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
