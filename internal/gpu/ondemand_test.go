package gpu

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestOnDemandStartsWarpZero: an OnDemand launch starts warp 0 of each
// block and no other, while each block holds the residency of all its
// warps.
func TestOnDemandStartsWarpZero(t *testing.T) {
	eng := sim.New()
	t.Cleanup(eng.Close)
	dev := NewDevice(eng, testCfg())
	var ran [][2]int
	k := dev.Launch(LaunchSpec{
		Name: "od", GridDim: 3, BlockThreads: 128, OnDemand: true,
		Fn: func(c *Ctx) {
			ran = append(ran, [2]int{c.BlockIdx, c.WarpInBlock})
			c.Compute(50)
		},
	})
	if got := eng.LiveProcs(); got != 3 {
		t.Fatalf("%d warps started at placement, want warp 0 of each of 3 blocks", got)
	}
	if got := residentWarps(dev); got != 12 {
		t.Fatalf("%d warps resident, want the 4 of each of 3 blocks", got)
	}
	eng.Run()
	if want := [][2]int{{0, 0}, {1, 0}, {2, 0}}; !slices.Equal(ran, want) {
		t.Fatalf("warps ran %v, want %v", ran, want)
	}
	if !k.finished || residentWarps(dev) != 0 {
		t.Fatalf("kernel finished = %v with %d warps resident, want done and none", k.finished, residentWarps(dev))
	}
}

// TestStartWarpReusesFreedWarpAndHoldsBlock: warp 0 starts warp 1, which
// exits, and later warps 2 and 3: warp 2 runs on warp 1's freed warp, warp
// 3 on a new one, and the block stays resident, its kernel unfinished,
// until warp 3, the last it started, exits after warp 0 has.
func TestStartWarpReusesFreedWarpAndHoldsBlock(t *testing.T) {
	eng := sim.New()
	t.Cleanup(eng.Close)
	dev := NewDevice(eng, testCfg())
	var (
		k        *Kernel
		ctxs     [4]*Ctx
		ends     [4]sim.Time
		resident int
	)
	k = dev.Launch(LaunchSpec{
		Name: "od", GridDim: 1, BlockThreads: 128, OnDemand: true,
		Fn: func(c *Ctx) {
			i := c.WarpInBlock
			ctxs[i] = c
			switch i {
			case 0:
				k.StartWarp(0, 1)
				c.Compute(1000) // warp 1 exits meanwhile
				k.StartWarp(0, 2)
				k.StartWarp(0, 3)
			case 3:
				c.Compute(5000)
				resident = residentWarps(dev)
			default:
				c.Compute(10)
			}
			ends[i] = c.Now()
		},
	})
	eng.Run()
	if ctxs[2] != ctxs[1] {
		t.Error("warp 2 did not reuse warp 1's freed warp")
	}
	if ctxs[3] == ctxs[0] || ctxs[3] == ctxs[1] {
		t.Error("warp 3 ran on a live warp")
	}
	if n := freeWarps(dev); n != 3 {
		t.Errorf("%d warps free after the run, want the 3 it allocated", n)
	}
	if !(ends[0] < ends[3]) || resident != 4 || k.EndTime != ends[3] {
		t.Fatalf("warp 0 ended at %v, warp 3 at %v with %d warps resident; kernel ended at %v: want the block held until warp 3 exits",
			ends[0], ends[3], resident, k.EndTime)
	}
}

// TestStartWarpPanics: StartWarp refuses a kernel launched without
// OnDemand, warp 0 and a warp out of range, and a block outside the grid,
// queued or done.
func TestStartWarpPanics(t *testing.T) {
	eng := sim.New()
	t.Cleanup(eng.Close)
	dev := NewDevice(eng, testCfg())
	plain := dev.Launch(LaunchSpec{Name: "plain", GridDim: 1, BlockThreads: 64, Fn: func(c *Ctx) { c.Compute(10) }})
	// Two 48 KiB blocks fill an SMM, so blocks 4 and 5 queue.
	od := dev.Launch(LaunchSpec{
		Name: "od", GridDim: 6, BlockThreads: 128, SharedPerTB: 48 << 10, OnDemand: true,
		Fn: func(c *Ctx) { c.Compute(10) },
	})
	for _, tc := range []struct {
		k            *Kernel
		block, warp  int
		wantContains string
	}{
		{plain, 0, 1, "without OnDemand"},
		{od, 0, 0, "placement starts warp 0"},
		{od, 0, 4, "placement starts warp 0"},
		{od, -1, 1, "not resident"},
		{od, 6, 1, "not resident"},
		{od, 5, 1, "not resident"},
	} {
		t.Run(fmt.Sprintf("%s_b%d_w%d", tc.k.Spec.Name, tc.block, tc.warp), func(t *testing.T) {
			mustPanic(t, tc.wantContains, func() { tc.k.StartWarp(tc.block, tc.warp) })
		})
	}
	eng.Run()
	if !od.finished {
		t.Fatal("the OnDemand kernel did not finish")
	}
	mustPanic(t, "not resident", func() { od.StartWarp(0, 1) })
}

// residentWarps sums the warps resident on the device's SMMs.
func residentWarps(d *Device) int {
	n := 0
	for _, m := range d.SMMs {
		n += m.residentWarps
	}
	return n
}

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Errorf("panic = %v, want one mentioning %q", r, want)
		}
	}()
	fn()
}
