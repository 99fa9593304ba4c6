package core

import (
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// ablationRun executes a fixed narrow-task workload under a given Pagoda
// configuration and returns the makespan.
func ablationRun(b *testing.B, cfg Config, smms int) sim.Time {
	b.Helper()
	eng := sim.New()
	gcfg := gpu.TitanX()
	gcfg.NumSMMs = smms
	dev := gpu.NewDevice(eng, gcfg)
	bus := pcie.New(eng, pcie.Default())
	ctx := cuda.NewContext(eng, dev, bus, cuda.DefaultConfig())
	rt := NewRuntime(ctx, cfg)
	eng.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < 512; i++ {
			sm := 0
			if i%4 == 0 {
				sm = 2048
			}
			sync := i%2 == 0
			rt.TaskSpawn(p, TaskSpec{
				Threads: 128, Blocks: 1, SharedMem: sm, Sync: sync,
				Kernel: func(tc *TaskCtx) {
					for s := 0; s < 8; s++ {
						tc.GlobalRead(512)
						tc.Compute(400)
					}
					if tc.Threads() > 32 && sync {
						tc.SyncBlock()
					}
				},
			})
		}
		rt.WaitAll(p)
		rt.Shutdown(p)
	})
	end := eng.Run()
	if rt.Stats().Completed != 512 {
		b.Fatalf("incomplete ablation run: %d/512", rt.Stats().Completed)
	}
	return end
}

// BenchmarkAblationTaskTableRows sweeps the TaskTable depth (the paper uses
// 32 rows per MTB; fewer rows force more handshaking, more rows cost scan
// time).
func BenchmarkAblationTaskTableRows(b *testing.B) {
	for _, rows := range []int{4, 8, 16, 32, 64} {
		rows := rows
		b.Run(benchName("rows", rows), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Rows = rows
			var end sim.Time
			for i := 0; i < b.N; i++ {
				end = ablationRun(b, cfg, 4)
			}
			b.ReportMetric(end/1e3, "sim_us")
		})
	}
}

// BenchmarkAblationMTBsPerSMM sweeps the MasterKernel threadblock split (the
// paper uses 2 x 32 warps; 1 x 32 leaves half the SMM empty).
func BenchmarkAblationMTBsPerSMM(b *testing.B) {
	for _, mtbs := range []int{1, 2} {
		mtbs := mtbs
		b.Run(benchName("mtbs", mtbs), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.MTBsPerSMM = mtbs
			var end sim.Time
			for i := 0; i < b.N; i++ {
				end = ablationRun(b, cfg, 4)
			}
			b.ReportMetric(end/1e3, "sim_us")
		})
	}
}

// BenchmarkAblationSchedulerWakeDelay sweeps the modelled scheduler polling
// gap.
func BenchmarkAblationSchedulerWakeDelay(b *testing.B) {
	for _, delay := range []sim.Time{50, 250, 1000, 4000} {
		delay := delay
		b.Run(benchName("wake_ns", int(delay)), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.SchedulerWakeDelay = delay
			var end sim.Time
			for i := 0; i < b.N; i++ {
				end = ablationRun(b, cfg, 4)
			}
			b.ReportMetric(end/1e3, "sim_us")
		})
	}
}

// BenchmarkBuddyAllocator measures the §5.1 allocator's alloc/free cycle.
func BenchmarkBuddyAllocator(b *testing.B) {
	bd := NewBuddy(32*1024, 512)
	sizes := []int{512, 2048, 8192, 1024}
	var nodes []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, n, ok := bd.Alloc(sizes[i%len(sizes)])
		if ok {
			nodes = append(nodes, n)
		}
		if len(nodes) > 6 || !ok {
			for _, m := range nodes {
				bd.MarkForDealloc(m)
			}
			nodes = nodes[:0]
			bd.DrainPending()
		}
	}
}

// BenchmarkBumpAllocatorBaseline contrasts the buddy system against a naive
// reset-only bump allocator (what a scheme without per-block free would do:
// it can only recycle when *everything* is free).
func BenchmarkBumpAllocatorBaseline(b *testing.B) {
	const arena = 32 * 1024
	off := 0
	live := 0
	sizes := []int{512, 2048, 8192, 1024}
	for i := 0; i < b.N; i++ {
		sz := sizes[i%len(sizes)]
		if off+sz > arena {
			if live > 0 {
				live = 0 // wait for all to finish, then wholesale reset
			}
			off = 0
		}
		off += sz
		live++
	}
}

func benchName(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
