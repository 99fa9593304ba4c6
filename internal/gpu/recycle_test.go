package gpu

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/sim"
)

// takeRecycled empties the process-wide warp list and returns its warps,
// the one put last first.
func takeRecycled() []*warp {
	var ws []*warp
	for {
		w, ok := recycled.Get()
		if !ok {
			return ws
		}
		ws = append(ws, w)
	}
}

// recycledRun is what a test launch leaves to compare: the instant each
// warp ends, the device's Metrics and the engine's counts at the end, and
// the Ctx of each warp it ran.
type recycledRun struct {
	ends  []sim.Time
	m     Metrics
	stats sim.Stats
	ctxs  []*Ctx
}

// runRecycleProbe launches a three-block kernel that syncs, reads global
// memory and replays a tape on a fresh engine and device, runs it, and
// returns the engine unclosed.
func runRecycleProbe() (*sim.Engine, recycledRun) {
	eng := sim.New()
	dev := NewDevice(eng, testCfg())
	var r recycledRun
	dev.Launch(LaunchSpec{
		Name: "probe", GridDim: 3, BlockThreads: 96,
		Fn: func(c *Ctx) {
			r.ctxs = append(r.ctxs, c)
			task := c.Task()
			task.Bind(c, 3, c.BlockIdx)
			task.Compute(float64(5 + 4*c.BlockIdx + c.WarpInBlock))
			task.SyncBlock()
			task.GlobalRead(384)
			task.Drain()
			r.ends = append(r.ends, c.Now())
		},
	})
	eng.Run()
	r.m, r.stats = dev.Metrics(), eng.Stats()
	return eng, r
}

// TestRecycledWarpsRunAsFresh: when an engine closes, its device hands its
// exited warps to the process-wide list zeroed, so none points into the
// closed simulation, and a launch on another device, with another config
// and kernel, runs on them exactly as on freshly allocated warps: the same
// end instants, Metrics and engine counts.
func TestRecycledWarpsRunAsFresh(t *testing.T) {
	takeRecycled()
	old := sim.New()
	oldCfg := TitanX()
	oldCfg.NumSMMs = 3
	oldDev := NewDevice(old, oldCfg)
	oldDev.Launch(LaunchSpec{
		Name: "old", GridDim: 5, BlockThreads: 256, SharedPerTB: 1 << 10,
		Fn: func(c *Ctx) {
			task := c.Task()
			task.Bind(c, 5, c.BlockIdx)
			task.UseArena(new([]byte), 5<<10, c.BlockIdx<<10, 1<<10)
			task.Shared()[0] = 1
			task.Compute(7)
			task.SyncBlock()
			task.Drain()
		},
	})
	old.Run()
	exited := freeWarps(oldDev)
	old.Close()
	if oldDev.free != nil {
		t.Fatal("the closed engine's device kept its free warps")
	}
	given := takeRecycled()
	if len(given) != exited {
		t.Fatalf("the closed device gave %d warps, want its %d exited ones", len(given), exited)
	}
	mine := make(map[*Ctx]bool)
	for _, w := range given {
		if !reflect.ValueOf(*w).IsZero() {
			t.Fatalf("a recycled warp keeps state of the closed engine: %+v", *w)
		}
		mine[&w.ctx] = true
	}
	for i := len(given) - 1; i >= 0; i-- {
		recycled.Put(given[i])
	}

	eng, got := runRecycleProbe()
	for _, c := range got.ctxs {
		if !mine[c] {
			t.Fatalf("the launch allocated a warp (its Ctx at %p) while %d recycled ones were free", c, exited)
		}
	}
	takeRecycled() // the rest of the closed device's warps
	fresh, want := runRecycleProbe()
	for _, c := range want.ctxs {
		if mine[c] {
			t.Fatal("the fresh run took a recycled warp")
		}
	}
	eng.Close()
	fresh.Close()
	if !slices.Equal(got.ends, want.ends) || got.m != want.m || got.stats != want.stats {
		t.Errorf("recycled warps: ends %v, %+v, %+v;\nfresh warps: ends %v, %+v, %+v",
			got.ends, got.m, got.stats, want.ends, want.m, want.stats)
	}
}

// TestRecycledWarpsAcrossGoroutines builds, runs and closes engines with
// devices on two goroutines at once, so each draws on warps the other's
// closed engines gave back; under -race it checks that the hand-back at
// Close is the only way a warp moves between engines.
func TestRecycledWarpsAcrossGoroutines(t *testing.T) {
	eng, want := runRecycleProbe()
	eng.Close()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				eng, got := runRecycleProbe()
				eng.Close()
				if !slices.Equal(got.ends, want.ends) || got.stats != want.stats {
					errs[g] = fmt.Errorf("run %d: ends %v, %+v; want %v, %+v", i, got.ends, got.stats, want.ends, want.stats)
					return
				}
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}
