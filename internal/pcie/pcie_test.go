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
	if bus.Transfers[HostToDevice] != 1 || bus.BytesMoved[HostToDevice] != 12000 {
		t.Errorf("accounting: %+v", bus)
	}
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

func TestMinTransferTime(t *testing.T) {
	eng := sim.New()
	bus := New(eng, Default())
	approx(t, bus.MinTransferTime(1200), 8000+100, 1e-9, "analytic bound")
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

// TestStartedVsCompletedCounters: Transfers[d] only counts *completed*
// transactions; Started[d]/BytesRequested[d] tick at admission. Sampling
// mid-flight (e.g. a utilization probe) used to read zero activity while a
// large DMA was in progress.
func TestStartedVsCompletedCounters(t *testing.T) {
	eng := sim.New()
	bus := New(eng, Config{BytesPerCycle: 10, Latency: 0})
	eng.Spawn("h", func(p *sim.Proc) {
		bus.Transfer(p, HostToDevice, 1000) // 100 cycles
	})
	var midStarted, midDone, midInFlight int
	eng.Schedule(50, func() { // sample mid-transfer
		midStarted = bus.Started[HostToDevice]
		midDone = bus.Transfers[HostToDevice]
		midInFlight = bus.Started[HostToDevice] - bus.Transfers[HostToDevice]
	})
	eng.Run()
	if midStarted != 1 || midDone != 0 || midInFlight != 1 {
		t.Fatalf("mid-flight: Started=%d Transfers=%d InFlight=%d, want 1/0/1",
			midStarted, midDone, midInFlight)
	}
	if bus.Started[HostToDevice] != 1 || bus.Transfers[HostToDevice] != 1 {
		t.Fatalf("after drain: Started=%d Transfers=%d, want 1/1",
			bus.Started[HostToDevice], bus.Transfers[HostToDevice])
	}
	if bus.BytesRequested[HostToDevice] != 1000 || bus.BytesMoved[HostToDevice] != 1000 {
		t.Fatalf("bytes: requested=%d moved=%d, want 1000/1000",
			bus.BytesRequested[HostToDevice], bus.BytesMoved[HostToDevice])
	}
}
