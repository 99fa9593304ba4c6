package gpu

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// mixedOpsRun launches three staggered kernels of nine warps each on a
// 2-SMM device. Every warp mixes all four memory ops, GlobalRead(0) and
// fractional Compute, so the issue slots and device-memory bandwidth are
// both contended. It returns each warp's finish instant, indexed
// [kernel][block][warp], and the final Metrics.
func mixedOpsRun() ([3][3][3]sim.Time, Metrics) {
	eng := sim.New()
	defer eng.Close()
	dev := NewDevice(eng, testCfg())
	var done [3][3][3]sim.Time
	for k := range done {
		eng.Schedule(float64(k)*37.5, func() {
			dev.Launch(LaunchSpec{
				Name: "mixed", GridDim: 3, BlockThreads: 96,
				Fn: func(c *Ctx) {
					w := c.BlockIdx*3 + c.WarpInBlock
					for i := 0; i < 6; i++ {
						n := 128 * (1 + (k*5+w*3+i)%11)
						switch (w + i + k) % 5 {
						case 0:
							c.GlobalRead(n)
						case 1:
							c.GlobalWrite(n)
						case 2:
							c.SharedRead(n)
						case 3:
							c.SharedWrite(n)
						default:
							c.GlobalRead(0)
						}
						c.Compute(float64(3+(w*7+i)%13) + 0.125)
					}
					done[k][c.BlockIdx][c.WarpInBlock] = c.Now()
				},
			})
		})
	}
	eng.Run()
	return done, dev.Metrics()
}

// TestChainedCostOpsMatchGolden pins the warp finish instants and final
// Metrics of mixedOpsRun to the values recorded when every memory op blocked
// its warp once per stage (issue, bandwidth, latency). Chaining the stages
// on the event loop must move none of them by a single bit.
func TestChainedCostOpsMatchGolden(t *testing.T) {
	done, m := mixedOpsRun()
	want := [3][3][3]sim.Time{
		{{1241.80125, 985.1628802083334, 930.6062792968751}, {923.0286736111112, 1254.7366666666667, 1300.3718880208335}, {960.7111376856243, 928.3441959635418, 924.0661067708332}},
		{{997.8203190104165, 985.0142148437499, 936.8710898437497}, {1337.3549007064576, 1318.4291423339841, 1009.8045079113189}, {965.8982552083332, 976.2082152777779, 1331.1858958333332}},
		{{985.9189317975724, 1026.0896935163219, 1355.9655736529637}, {1374.1366666666668, 1008.0903971354167, 1026.407829020182}, {1017.1744620671346, 1347.8128661915612, 1354.3976180303664}},
	}
	for k := range want {
		for b := range want[k] {
			for w, at := range want[k][b] {
				if got := done[k][b][w]; math.Float64bits(got) != math.Float64bits(at) {
					t.Errorf("kernel %d tb%d w%d finished at %v, want %v", k, b, w, got, at)
				}
			}
		}
	}
	wantM := Metrics{IssueUtil: 0.20551540239811172, AvgOccupancy: 0.18618926650017065}
	if m != wantM {
		t.Errorf("Metrics = %#v, want %#v", m, wantM)
	}
}

// TestCloseMidChainLeavesNoGoroutine cuts a run of 16 warps looping over
// GlobalRead and SharedWrite while they are blocked mid-chain, some waiting
// in a share and some with a stage or resume queued, and closes the engine: every warp unwinds and returns
// its coroutine, so repeated runs start no goroutine and leave none behind.
func TestCloseMidChainLeavesNoGoroutine(t *testing.T) {
	run := func() {
		eng := sim.New()
		dev := NewDevice(eng, testCfg())
		dev.Launch(LaunchSpec{
			Name: "chain", GridDim: 4, BlockThreads: 128,
			Fn: func(c *Ctx) {
				for i := 0; i < 8; i++ {
					c.GlobalRead(4096)
					c.SharedWrite(256)
				}
			},
		})
		eng.RunUntil(700.5)
		if eng.LiveProcs() == 0 {
			t.Fatal("every warp finished before the cut; the check needs warps mid-chain")
		}
		eng.Close()
		if n := eng.LiveProcs(); n != 0 {
			t.Fatalf("%d procs live after Close", n)
		}
	}
	run()
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		run()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d after five closed runs, %d after the warm-up", after, before)
	}
}

// TestChainedWarpBlockedProcs: a warp in a memory op is listed by
// BlockedProcs while it waits in a share, as a Share.Acquire waiter is, and
// not while its latency runs, as a sleeping warp is not.
func TestChainedWarpBlockedProcs(t *testing.T) {
	cfg := testCfg()
	cfg.NumSMMs = 1
	eng := sim.New()
	t.Cleanup(eng.Close)
	dev := NewDevice(eng, cfg)
	// Eight warps on four issue slots each charge 4096/128 = 32
	// transactions, served at half rate: issue ends at 64. The eight 4 KiB
	// transfers then share 300 B/cycle, ending near 64+109; the latency
	// (368) follows.
	dev.Launch(LaunchSpec{
		Name: "rd", GridDim: 1, BlockThreads: 256,
		Fn: func(c *Ctx) { c.GlobalRead(4096) },
	})
	var all []string
	for w := 0; w < 8; w++ {
		all = append(all, fmt.Sprintf("rd/tb0/w%d", w))
	}
	for _, c := range []struct {
		at   sim.Time
		want []string
	}{
		{10, all},  // waiting for issue slots
		{100, all}, // waiting for bandwidth
		{300, nil}, // in the latency, with the resume queued
	} {
		eng.RunUntil(c.at)
		if got := eng.BlockedProcs(); !slices.Equal(got, c.want) {
			t.Errorf("at %v: BlockedProcs = %v, want %v", c.at, got, c.want)
		}
	}
	eng.Run()
	if got := eng.BlockedProcs(); got != nil {
		t.Errorf("after the run: BlockedProcs = %v, want none", got)
	}
}

// TestCtxSize pins the per-warp context: a chained op keeps its stage on the
// warp's proc, not in Ctx, so a threadblock's warp array does not grow.
func TestCtxSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Ctx{}); got != 56 {
		t.Errorf("sizeof(Ctx) = %d, want 56", got)
	}
}

// TestTaskSize pins a task's view of its warp, which HyperQ and GeMTC
// allocate one of per task warp and Pagoda one of per WarpTable slot.
func TestTaskSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Task{}); got != 88 {
		t.Errorf("sizeof(Task) = %d, want 88", got)
	}
}
