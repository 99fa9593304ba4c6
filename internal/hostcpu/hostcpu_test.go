package hostcpu

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestPoolParallelism(t *testing.T) {
	eng := sim.New()
	cfg := Config{Cores: 4, FreqGHz: 1, DispatchCost: 0}
	pool := NewPool(eng, cfg)
	eng.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			pool.Submit(p, 100)
		}
		pool.WaitAll(p)
	})
	end := eng.Run()
	// 8 tasks of 100 cycles on 4 cores at 1 GHz: two waves = 200 ns.
	if math.Abs(end-200) > 1e-6 {
		t.Fatalf("end = %v, want 200", end)
	}
	if pool.TasksRun != 8 {
		t.Errorf("TasksRun = %d, want 8", pool.TasksRun)
	}
}

func TestFrequencyScaling(t *testing.T) {
	eng := sim.New()
	pool := NewPool(eng, Config{Cores: 1, FreqGHz: 2.6, DispatchCost: 0})
	eng.Spawn("host", func(p *sim.Proc) {
		pool.Submit(p, 2600)
		pool.WaitAll(p)
	})
	end := eng.Run()
	if math.Abs(end-1000) > 1e-6 {
		t.Fatalf("2600 cycles at 2.6GHz = %v ns, want 1000", end)
	}
}

func TestLoadImbalance(t *testing.T) {
	// One long task dominates: makespan = long task, not average.
	eng := sim.New()
	pool := NewPool(eng, Config{Cores: 2, FreqGHz: 1, DispatchCost: 0})
	eng.Spawn("host", func(p *sim.Proc) {
		pool.Submit(p, 1000)
		for i := 0; i < 10; i++ {
			pool.Submit(p, 10)
		}
		pool.WaitAll(p)
	})
	end := eng.Run()
	if end < 1000 || end > 1100 {
		t.Fatalf("makespan = %v, want ~1000 (long task bound)", end)
	}
}

func TestDispatchCostCharged(t *testing.T) {
	eng := sim.New()
	pool := NewPool(eng, Config{Cores: 1, FreqGHz: 1, DispatchCost: 50})
	var submitted sim.Time
	eng.Spawn("host", func(p *sim.Proc) {
		pool.Submit(p, 0)
		submitted = eng.Now()
		pool.WaitAll(p)
	})
	eng.Run()
	if submitted != 50 {
		t.Fatalf("submit returned at %v, want 50 (dispatch cost)", submitted)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPool(sim.New(), Config{Cores: 0, FreqGHz: 1})
}
