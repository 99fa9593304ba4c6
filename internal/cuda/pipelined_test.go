package cuda

import (
	"testing"

	"repro/internal/sim"
)

func TestPipelinedCopiesOverlapLatency(t *testing.T) {
	// N small pipelined copies cost ~N x issue-gap + one latency, not
	// N x latency: the property behind Pagoda's spawn rate (§4.2.1).
	run := func(pipelined bool, n int) sim.Time {
		eng, ctx := newCtx(1)
		eng.Spawn("host", func(p *sim.Proc) {
			s := ctx.NewStream()
			for i := 0; i < n; i++ {
				if pipelined {
					s.MemcpyH2DPipelined(p, 192, nil)
				} else {
					s.MemcpyH2D(p, 192, nil)
				}
			}
			s.Sync(p)
		})
		return eng.Run()
	}
	const n = 64
	plain := run(false, n)
	pipe := run(true, n)
	if pipe*3 > plain {
		t.Fatalf("pipelined copies too slow: pipelined=%v plain=%v", pipe, plain)
	}
}

func TestPipelinedDeliveryInIssueOrder(t *testing.T) {
	eng, ctx := newCtx(1)
	var order []int
	eng.Spawn("host", func(p *sim.Proc) {
		s := ctx.NewStream()
		// Vary sizes wildly: bandwidth sharing would complete small copies
		// first, but delivery must stay FIFO.
		sizes := []int{100000, 100, 50000, 10, 200000, 1000}
		for i, sz := range sizes {
			i := i
			s.MemcpyH2DPipelined(p, sz, func() { order = append(order, i) })
		}
		s.Sync(p)
	})
	eng.Run()
	if len(order) != 6 {
		t.Fatalf("deliveries = %v, want 6", order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("delivery order = %v, want FIFO", order)
		}
	}
}

func TestPipelinedSyncWaitsForDeliveries(t *testing.T) {
	eng, ctx := newCtx(1)
	delivered := false
	var syncTime sim.Time
	eng.Spawn("host", func(p *sim.Proc) {
		s := ctx.NewStream()
		s.MemcpyH2DPipelined(p, 1<<20, func() { delivered = true })
		s.Sync(p)
		if !delivered {
			t.Error("Sync returned before pipelined delivery")
		}
		syncTime = eng.Now()
	})
	eng.Run()
	min := ctx.Bus.MinTransferTime(1 << 20)
	if syncTime < min {
		t.Fatalf("Sync returned at %v, before the transfer could finish (%v)", syncTime, min)
	}
}

func TestPipelinedNilCallback(t *testing.T) {
	eng, ctx := newCtx(1)
	eng.Spawn("host", func(p *sim.Proc) {
		s := ctx.NewStream()
		s.MemcpyH2DPipelined(p, 128, nil) // must not panic
		s.Sync(p)
	})
	eng.Run()
}
