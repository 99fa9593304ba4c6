package pcie

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (±%v)", msg, got, want, tol)
	}
}

func TestSingleTransferTime(t *testing.T) {
	eng := sim.New()
	bus := New(eng, Default())
	var done sim.Time
	eng.Spawn("h", func(p *sim.Proc) {
		bus.Transfer(p, HostToDevice, 12000) // 12 KB at 12 B/cycle = 1000 cycles
		done = eng.Now()
	})
	eng.Run()
	approx(t, done, 8000+1000, 1e-6, "transfer time")
}

func TestConcurrentTransfersShareBandwidth(t *testing.T) {
	eng := sim.New()
	bus := New(eng, Config{BytesPerCycle: 10, Latency: 0})
	var t1, t2 sim.Time
	eng.Spawn("a", func(p *sim.Proc) { bus.Transfer(p, HostToDevice, 1000); t1 = eng.Now() })
	eng.Spawn("b", func(p *sim.Proc) { bus.Transfer(p, HostToDevice, 1000); t2 = eng.Now() })
	eng.Run()
	// Two equal flows at 10 B/cycle total: each effectively 5 B/cycle.
	approx(t, t1, 200, 1e-6, "flow 1")
	approx(t, t2, 200, 1e-6, "flow 2")
}

func TestDirectionsIndependent(t *testing.T) {
	eng := sim.New()
	bus := New(eng, Config{BytesPerCycle: 10, Latency: 0})
	var h2d, d2h sim.Time
	eng.Spawn("a", func(p *sim.Proc) { bus.Transfer(p, HostToDevice, 1000); h2d = eng.Now() })
	eng.Spawn("b", func(p *sim.Proc) { bus.Transfer(p, DeviceToHost, 1000); d2h = eng.Now() })
	eng.Run()
	// Full duplex: neither slows the other.
	approx(t, h2d, 100, 1e-6, "H2D")
	approx(t, d2h, 100, 1e-6, "D2H")
}

func TestAggregationBeatsManySmallCopies(t *testing.T) {
	// The property behind lazy aggregate TaskTable updates: one bulk copy of
	// N entries is much cheaper than N per-entry copies, because latency
	// dominates small transactions.
	run := func(copies, bytesEach int) sim.Time {
		eng := sim.New()
		bus := New(eng, Default())
		eng.Spawn("h", func(p *sim.Proc) {
			for i := 0; i < copies; i++ {
				bus.Transfer(p, DeviceToHost, bytesEach)
			}
		})
		return eng.Run()
	}
	many := run(64, 256)
	bulk := run(1, 64*256)
	if bulk*10 > many {
		t.Fatalf("aggregation too weak: bulk=%v many=%v", bulk, many)
	}
}

func TestTransferAsync(t *testing.T) {
	eng := sim.New()
	bus := New(eng, Config{BytesPerCycle: 1, Latency: 100})
	var done sim.Time
	bus.TransferAsync(HostToDevice, 50, func() { done = eng.Now() })
	eng.Run()
	approx(t, done, 150, 1e-6, "async completion")
}

func TestZeroByteTransferLatencyOnly(t *testing.T) {
	eng := sim.New()
	bus := New(eng, Default())
	var done sim.Time
	eng.Spawn("h", func(p *sim.Proc) {
		bus.Transfer(p, HostToDevice, 0)
		done = eng.Now()
	})
	eng.Run()
	approx(t, done, 8000, 1e-6, "latency-only transfer")
}

// minTransferTime is the uncontended time to move bytes across a bus of
// cfg: latency plus bytes at the full bandwidth.
func minTransferTime(cfg Config, bytes int) sim.Time {
	return cfg.Latency + float64(bytes)/cfg.BytesPerCycle
}

// TestMinTransferTime: a lone transfer takes exactly the analytic bound, on
// the default bus and on a custom one, in either direction.
func TestMinTransferTime(t *testing.T) {
	approx(t, minTransferTime(Default(), 1200), 8000+100, 1e-9, "analytic bound")
	for _, cfg := range []Config{Default(), {BytesPerCycle: 3, Latency: 250}} {
		for _, dir := range []Dir{HostToDevice, DeviceToHost} {
			eng := sim.New()
			bus := New(eng, cfg)
			var done sim.Time
			eng.Spawn("h", func(p *sim.Proc) {
				bus.Transfer(p, dir, 1200)
				done = eng.Now()
			})
			eng.Run()
			approx(t, done, minTransferTime(cfg, 1200), 1e-6, "lone transfer")
		}
	}
}

func TestNegativeTransferPanics(t *testing.T) {
	eng := sim.New()
	bus := New(eng, Default())
	eng.Spawn("h", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		bus.Transfer(p, HostToDevice, -1)
	})
	eng.Run()
}
