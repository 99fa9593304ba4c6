package cuda

import (
	"testing"

	"repro/internal/gpu"
	"repro/internal/pcie"
	"repro/internal/sim"
)

func newCtx(smms int) (*sim.Engine, *Context) {
	eng := sim.New()
	cfg := gpu.TitanX()
	cfg.NumSMMs = smms
	dev := gpu.NewDevice(eng, cfg)
	bus := pcie.New(eng, pcie.Default())
	return eng, NewContext(eng, dev, bus, DefaultConfig())
}

func TestStreamFIFO(t *testing.T) {
	eng, ctx := newCtx(2)
	var order []string
	eng.Spawn("host", func(p *sim.Proc) {
		s := ctx.NewStream()
		s.MemcpyH2D(p, 1024, func() { order = append(order, "copy1") })
		s.Launch(p, gpu.LaunchSpec{
			Name: "k", GridDim: 1, BlockThreads: 32,
			Fn: func(c *gpu.Ctx) { c.Compute(100); order = append(order, "kernel") },
		})
		s.MemcpyD2H(p, 1024, func() { order = append(order, "copy2") })
		s.Sync(p)
		order = append(order, "sync")
	})
	eng.Run()
	want := []string{"copy1", "kernel", "copy2", "sync"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestStreamsOverlap(t *testing.T) {
	eng, ctx := newCtx(2)
	var k1done, k2done sim.Time
	eng.Spawn("host", func(p *sim.Proc) {
		s1, s2 := ctx.NewStream(), ctx.NewStream()
		h1 := s1.Launch(p, gpu.LaunchSpec{Name: "k1", GridDim: 1, BlockThreads: 32,
			Fn: func(c *gpu.Ctx) { c.Compute(10000) }})
		h2 := s2.Launch(p, gpu.LaunchSpec{Name: "k2", GridDim: 1, BlockThreads: 32,
			Fn: func(c *gpu.Ctx) { c.Compute(10000) }})
		h1.Wait(p)
		k1done = eng.Now()
		h2.Wait(p)
		k2done = eng.Now()
	})
	eng.Run()
	// Different streams overlap: both finish ~together, not serialized.
	if k2done > k1done+6000 {
		t.Fatalf("streams serialized: k1=%v k2=%v", k1done, k2done)
	}
}

func TestHyperQLimit(t *testing.T) {
	eng, ctx := newCtx(24)
	running, maxRunning, launched := 0, 0, 0
	eng.Spawn("host", func(p *sim.Proc) {
		var handles []*KernelHandle
		for i := 0; i < 64; i++ {
			s := ctx.NewStream()
			handles = append(handles, s.Launch(p, gpu.LaunchSpec{
				Name: "nk", GridDim: 1, BlockThreads: 32,
				Fn: func(c *gpu.Ctx) {
					launched++ // one warp per kernel
					running++
					if running > maxRunning {
						maxRunning = running
					}
					c.Compute(500000) // long enough that all 64 launches pile up
					running--
				},
			}))
		}
		for _, h := range handles {
			h.Wait(p)
		}
	})
	eng.Run()
	if maxRunning > ctx.Cfg.MaxConnections {
		t.Fatalf("max concurrent kernels = %d, exceeds HyperQ limit %d", maxRunning, ctx.Cfg.MaxConnections)
	}
	if maxRunning < ctx.Cfg.MaxConnections/2 {
		t.Fatalf("max concurrent kernels = %d, expected rough saturation of %d connections", maxRunning, ctx.Cfg.MaxConnections)
	}
	if launched != 64 {
		t.Errorf("%d kernels ran, want 64", launched)
	}
}

func TestLaunchOverheadApplied(t *testing.T) {
	eng, ctx := newCtx(1)
	var done sim.Time
	eng.Spawn("host", func(p *sim.Proc) {
		s := ctx.NewStream()
		h := s.Launch(p, gpu.LaunchSpec{Name: "k", GridDim: 1, BlockThreads: 32,
			Fn: func(c *gpu.Ctx) { c.Compute(100) }})
		h.Wait(p)
		done = eng.Now()
	})
	eng.Run()
	min := ctx.Cfg.EnqueueCost + ctx.Cfg.LaunchOverhead + 100
	if done < min {
		t.Fatalf("kernel finished at %v, before overheads (%v) allow", done, min)
	}
}

// TestLaunchPersistentBypassesHyperQ: with a single HyperQ connection, a
// stream kernel still dispatches while a persistent daemon kernel runs, so
// the daemon holds no connection.
func TestLaunchPersistentBypassesHyperQ(t *testing.T) {
	eng, ctx := newCtx(1)
	ctx.hyperQ = sim.NewSem(1)
	k := ctx.LaunchPersistent(gpu.LaunchSpec{
		Name: "daemon", GridDim: 2, BlockThreads: 1024, RegsPerThread: 32,
		Fn: func(c *gpu.Ctx) { c.Compute(100000) },
	})
	dispatched, daemonDone := sim.Time(-1), sim.Time(-1)
	eng.Spawn("host", func(p *sim.Proc) {
		ctx.NewStream().LaunchHooked(p, gpu.LaunchSpec{
			Name: "k", GridDim: 1, BlockThreads: 32, Fn: func(c *gpu.Ctx) { c.Compute(100) },
		},
			func() { dispatched = eng.Now() })
		k.WaitDone(p)
		daemonDone = eng.Now()
	})
	eng.Run()
	if daemonDone < 0 {
		t.Fatal("persistent kernel did not finish")
	}
	if dispatched < 0 || dispatched >= daemonDone {
		t.Fatalf("stream kernel dispatched at %v, want before the daemon finished at %v", dispatched, daemonDone)
	}
}

func TestMemcpySyncTiming(t *testing.T) {
	eng, ctx := newCtx(1)
	var done sim.Time
	eng.Spawn("host", func(p *sim.Proc) {
		ctx.MemcpyH2DSync(p, 12000)
		done = eng.Now()
	})
	eng.Run()
	want := ctx.Bus.MinTransferTime(12000)
	if done != want {
		t.Fatalf("sync copy took %v, want %v", done, want)
	}
}

func TestStreamSyncIdempotentWhenIdle(t *testing.T) {
	eng, ctx := newCtx(1)
	eng.Spawn("host", func(p *sim.Proc) {
		s := ctx.NewStream()
		s.Sync(p) // no commands: returns immediately
		if eng.Now() != 0 {
			t.Errorf("Sync on idle stream advanced time to %v", eng.Now())
		}
	})
	eng.Run()
}

func TestManyStreamsDeterministic(t *testing.T) {
	run := func() sim.Time {
		eng, ctx := newCtx(4)
		eng.Spawn("host", func(p *sim.Proc) {
			var hs []*KernelHandle
			for i := 0; i < 40; i++ {
				s := ctx.NewStream()
				n := 100 + i*13
				hs = append(hs, s.Launch(p, gpu.LaunchSpec{
					Name: "k", GridDim: 1 + i%3, BlockThreads: 64,
					Fn: func(c *gpu.Ctx) { c.Compute(float64(n)); c.GlobalRead(256) },
				}))
			}
			for _, h := range hs {
				h.Wait(p)
			}
		})
		return eng.Run()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}
