package runners

import (
	"fmt"
	"testing"

	"repro/internal/workloads"
)

// TestDeterminismGolden pins the final virtual times of a small fig5/fig6
// matrix to exact bit patterns (hex float literals). The simulation is
// specified to be deterministic (DESIGN.md decision #1): same seed, same
// config, same binary => byte-identical results. Any engine change that
// shifts event ordering — heap arity, timer re-keying, baton handoff — must
// keep these values bit-for-bit; a legitimate *model* change that moves them
// needs these constants re-captured and the shift explained in the PR.
func TestDeterminismGolden(t *testing.T) {
	cfg := DefaultConfig()

	type runnerFn func([]workloads.TaskDef, Config) Result
	runAll := func(name string, tasks int, want map[string]float64, fns map[string]runnerFn) {
		b, err := workloads.ByName(name)
		if err != nil {
			t.Fatalf("workload %q: %v", name, err)
		}
		opt := workloads.Options{Tasks: tasks, Threads: 128, Seed: 1, UseShared: b.SupportsShared}
		for sys, fn := range fns {
			wantV, pinned := want[sys]
			if !pinned {
				continue
			}
			got := float64(fn(b.Make(opt), cfg).Elapsed)
			if got != wantV {
				t.Errorf("%s/%s tasks=%d: Elapsed = %x (%v), want %x (%v)",
					name, sys, tasks, got, got, wantV, wantV)
			}
		}
	}

	all := map[string]runnerFn{
		"pagoda":   RunPagoda,
		"hyperq":   RunHyperQ,
		"gemtc":    RunGeMTC,
		"pthreads": RunPThreads,
	}
	pgHq := map[string]runnerFn{"pagoda": RunPagoda, "hyperq": RunHyperQ}

	// fig5-style: 128 tasks across all four systems.
	runAll("MB", 128, map[string]float64{
		"pagoda":   0x1.df8d111111111p+18,
		"hyperq":   0x1.12669b4c1aaf2p+19,
		"gemtc":    0x1.92735fa6f984ep+19,
		"pthreads": 0x1.2dca827627628p+22,
	}, all)
	runAll("DCT", 128, map[string]float64{
		"pagoda":   0x1.97eb191919191p+19,
		"hyperq":   0x1.b1a862cace8adp+19,
		"gemtc":    0x1.762fp+20,
		"pthreads": 0x1.c7d2c4ec4ec5p+19,
	}, all)
	runAll("3DES", 128, map[string]float64{
		"pagoda":   0x1.4377196053ddp+18,
		"hyperq":   0x1.2487e8c348d6cp+18,
		"gemtc":    0x1.17bbbd8216a78p+19,
		"pthreads": 0x1.cea3189d89d8ap+21,
	}, all)

	// fig6-style weak scaling: Pagoda vs HyperQ at two task counts.
	runAll("MB", 64, map[string]float64{
		"pagoda": 0x1.2ab841041041p+18,
		"hyperq": 0x1.4a6b580f13e29p+18,
	}, pgHq)
	runAll("CONV", 64, map[string]float64{
		"pagoda": 0x1.f9beep+18,
		"hyperq": 0x1.eb7d378d66156p+18,
	}, pgHq)
	runAll("MB", 256, map[string]float64{
		"pagoda": 0x1.a8ec000000005p+19,
		"hyperq": 0x1.e7ac80ccdb7fp+19,
	}, pgHq)
	runAll("CONV", 256, map[string]float64{
		"pagoda": 0x1.8d0b355555555p+20,
		"hyperq": 0x1.94da41b77bd08p+20,
	}, pgHq)
}

// closedLoopGolden holds the FNV-64a digest of the whole Result (every
// latency order statistic, occupancy, issue utilization and task count) that
// the standalone Pagoda and GeMTC closed-loop runners produced, recorded
// before those runners became one-node fleets fed all tasks at t0. Keys are
// "<scheme>/<bench>/<tasks>/<copy|nocopy>/<cont|batch16>".
var closedLoopGolden = map[string]uint64{
	"pagoda/MB/1/copy/cont":          0xd5e10408c9a8b696,
	"gemtc/MB/1/copy/cont":           0x12ae97b345a73259,
	"pagoda/MB/1/copy/batch16":       0xd5e10408c9a8b696,
	"gemtc/MB/1/copy/batch16":        0x12ae97b345a73259,
	"pagoda/MB/1/nocopy/cont":        0xd71c5647bc497d84,
	"gemtc/MB/1/nocopy/cont":         0xb738a8ceb0de2045,
	"pagoda/MB/1/nocopy/batch16":     0xd71c5647bc497d84,
	"gemtc/MB/1/nocopy/batch16":      0xb738a8ceb0de2045,
	"pagoda/MB/3/copy/cont":          0x367c6f5dee436bd7,
	"gemtc/MB/3/copy/cont":           0x69db8bac865a2df3,
	"pagoda/MB/3/copy/batch16":       0x367c6f5dee436bd7,
	"gemtc/MB/3/copy/batch16":        0x69db8bac865a2df3,
	"pagoda/MB/3/nocopy/cont":        0x3f8653e0223552f4,
	"gemtc/MB/3/nocopy/cont":         0x9c5d4a1590317818,
	"pagoda/MB/3/nocopy/batch16":     0x3f8653e0223552f4,
	"gemtc/MB/3/nocopy/batch16":      0x9c5d4a1590317818,
	"pagoda/MB/128/copy/cont":        0x44abb3adfaff1073,
	"gemtc/MB/128/copy/cont":         0xdaaf6a148ce3b0c4,
	"pagoda/MB/128/copy/batch16":     0xc3743f8570f1a5c,
	"gemtc/MB/128/copy/batch16":      0x7b50ec4dfb6387bb,
	"pagoda/MB/128/nocopy/cont":      0x10a463c259ef1ecf,
	"gemtc/MB/128/nocopy/cont":       0x57f518801b0f4fc5,
	"pagoda/MB/128/nocopy/batch16":   0x571da44cecb4df04,
	"gemtc/MB/128/nocopy/batch16":    0x9a2d7eeced1a1293,
	"pagoda/DCT/1/copy/cont":         0xb3c882ac97a30c0e,
	"gemtc/DCT/1/copy/cont":          0x874ad759f00c8dc7,
	"pagoda/DCT/1/copy/batch16":      0xb3c882ac97a30c0e,
	"gemtc/DCT/1/copy/batch16":       0x874ad759f00c8dc7,
	"pagoda/DCT/1/nocopy/cont":       0x2b7b9f30001055be,
	"gemtc/DCT/1/nocopy/cont":        0xaf5e1e09c0b7ceb3,
	"pagoda/DCT/1/nocopy/batch16":    0x2b7b9f30001055be,
	"gemtc/DCT/1/nocopy/batch16":     0xaf5e1e09c0b7ceb3,
	"pagoda/DCT/3/copy/cont":         0x418fc80f4086a70b,
	"gemtc/DCT/3/copy/cont":          0x1a2b7d2d80f521f5,
	"pagoda/DCT/3/copy/batch16":      0x418fc80f4086a70b,
	"gemtc/DCT/3/copy/batch16":       0x1a2b7d2d80f521f5,
	"pagoda/DCT/3/nocopy/cont":       0xdf2e562e0c0fae99,
	"gemtc/DCT/3/nocopy/cont":        0x4df84638d4ec705b,
	"pagoda/DCT/3/nocopy/batch16":    0xdf2e562e0c0fae99,
	"gemtc/DCT/3/nocopy/batch16":     0x4df84638d4ec705b,
	"pagoda/DCT/128/copy/cont":       0x386863645387b275,
	"gemtc/DCT/128/copy/cont":        0x5a1a23eb911c21e1,
	"pagoda/DCT/128/copy/batch16":    0xd19004c91c89c0f4,
	"gemtc/DCT/128/copy/batch16":     0x2c2377b646876766,
	"pagoda/DCT/128/nocopy/cont":     0xb65e1aa53a7b3841,
	"gemtc/DCT/128/nocopy/cont":      0xe7708d2aafc0bb39,
	"pagoda/DCT/128/nocopy/batch16":  0x716b4565d1010197,
	"gemtc/DCT/128/nocopy/batch16":   0xccdfb33909968b0f,
	"pagoda/MPE/1/copy/cont":         0xa1fc0b9185a3cf54,
	"gemtc/MPE/1/copy/cont":          0x3ecb33e15783bec5,
	"pagoda/MPE/1/copy/batch16":      0xa1fc0b9185a3cf54,
	"gemtc/MPE/1/copy/batch16":       0x3ecb33e15783bec5,
	"pagoda/MPE/1/nocopy/cont":       0xc3580448c61a6768,
	"gemtc/MPE/1/nocopy/cont":        0x3ecb33e15783bec5,
	"pagoda/MPE/1/nocopy/batch16":    0xc3580448c61a6768,
	"gemtc/MPE/1/nocopy/batch16":     0x3ecb33e15783bec5,
	"pagoda/MPE/3/copy/cont":         0xa1fc0b9185a3cf54,
	"gemtc/MPE/3/copy/cont":          0x3ecb33e15783bec5,
	"pagoda/MPE/3/copy/batch16":      0xa1fc0b9185a3cf54,
	"gemtc/MPE/3/copy/batch16":       0x3ecb33e15783bec5,
	"pagoda/MPE/3/nocopy/cont":       0xc3580448c61a6768,
	"gemtc/MPE/3/nocopy/cont":        0x3ecb33e15783bec5,
	"pagoda/MPE/3/nocopy/batch16":    0xc3580448c61a6768,
	"gemtc/MPE/3/nocopy/batch16":     0x3ecb33e15783bec5,
	"pagoda/MPE/128/copy/cont":       0x5de72bb698fbbe55,
	"gemtc/MPE/128/copy/cont":        0x9d7a3e7cad60bd4f,
	"pagoda/MPE/128/copy/batch16":    0xe20a529a0a57f5a2,
	"gemtc/MPE/128/copy/batch16":     0x350eb359fdd6811b,
	"pagoda/MPE/128/nocopy/cont":     0x2b3848fba3b1f8ec,
	"gemtc/MPE/128/nocopy/cont":      0x8fdfff6de8605720,
	"pagoda/MPE/128/nocopy/batch16":  0xd34f25eb0b123f8d,
	"gemtc/MPE/128/nocopy/batch16":   0x83aa10d5660f97bd,
	"pagoda/SLUD/1/copy/cont":        0x144e8867b12ca740,
	"gemtc/SLUD/1/copy/cont":         0x5d2e25c3204a5028,
	"pagoda/SLUD/1/copy/batch16":     0x144e8867b12ca740,
	"gemtc/SLUD/1/copy/batch16":      0x5d2e25c3204a5028,
	"pagoda/SLUD/1/nocopy/cont":      0x630c1d4044cf9039,
	"gemtc/SLUD/1/nocopy/cont":       0xb70baa9ae8344999,
	"pagoda/SLUD/1/nocopy/batch16":   0x630c1d4044cf9039,
	"gemtc/SLUD/1/nocopy/batch16":    0xb70baa9ae8344999,
	"pagoda/SLUD/3/copy/cont":        0xdcf4fe528ec31c1a,
	"gemtc/SLUD/3/copy/cont":         0x3b7cf75c43698e7a,
	"pagoda/SLUD/3/copy/batch16":     0xdcf4fe528ec31c1a,
	"gemtc/SLUD/3/copy/batch16":      0x3b7cf75c43698e7a,
	"pagoda/SLUD/3/nocopy/cont":      0x646e603812af800c,
	"gemtc/SLUD/3/nocopy/cont":       0xb4d3705d63bcc5d3,
	"pagoda/SLUD/3/nocopy/batch16":   0x646e603812af800c,
	"gemtc/SLUD/3/nocopy/batch16":    0xb4d3705d63bcc5d3,
	"pagoda/SLUD/128/copy/cont":      0x1ae08be18eff2702,
	"gemtc/SLUD/128/copy/cont":       0x64ec4b646e6a7013,
	"pagoda/SLUD/128/copy/batch16":   0x3fdab5475b51c370,
	"gemtc/SLUD/128/copy/batch16":    0xfcfceb47dbaf1032,
	"pagoda/SLUD/128/nocopy/cont":    0xcca8e42234ed99f2,
	"gemtc/SLUD/128/nocopy/cont":     0x3b03a7e8a3bd9636,
	"pagoda/SLUD/128/nocopy/batch16": 0x9f9352e573645ad2,
	"gemtc/SLUD/128/nocopy/batch16":  0xa36dc831463991ab,
}

// TestClosedLoopResultGolden pins the whole closed-loop Result of Pagoda and
// GeMTC, beyond TestDeterminismGolden's Elapsed, over copies on and off,
// single-task, sub-spawner and multi-batch sizes, and the batched variant:
// PagodaBatching with a 16-task batch for Pagoda, 16-task SuperKernel
// launches for GeMTC.
func TestClosedLoopResultGolden(t *testing.T) {
	runs := []struct {
		key string
		run func([]workloads.TaskDef, Config) Result
	}{{"pagoda", RunPagoda}, {"gemtc", RunGeMTC}}
	for _, bench := range []string{"MB", "DCT", "MPE", "SLUD"} {
		b, err := workloads.ByName(bench)
		if err != nil {
			t.Fatalf("workload %q: %v", bench, err)
		}
		for _, n := range []int{1, 3, 128} {
			for _, copyData := range []bool{true, false} {
				for _, batched := range []bool{false, true} {
					cfg := DefaultConfig()
					cfg.CopyData = copyData
					variant := "cont"
					if batched {
						cfg.PagodaBatching = true
						cfg.GeMTCBatch = 16
						variant = "batch16"
					}
					copyName := "copy"
					if !copyData {
						copyName = "nocopy"
					}
					for _, r := range runs {
						key := fmt.Sprintf("%s/%s/%d/%s/%s", r.key, bench, n, copyName, variant)
						opt := workloads.Options{Tasks: n, Threads: 128, Seed: 1, UseShared: b.SupportsShared}
						tasks := b.Make(opt) // MPE rounds n down to whole 4-app groups
						res := r.run(tasks, cfg)
						if res.Tasks != len(tasks) {
							t.Errorf("%s: %d of %d tasks completed", key, res.Tasks, len(tasks))
						}
						got := digestOpenLoop(res, nil)
						want, ok := closedLoopGolden[key]
						if !ok {
							t.Errorf("%s: no golden digest; got %#x", key, got)
						} else if got != want {
							t.Errorf("%s: digest %#x, want %#x (result %+v)", key, got, want, res)
						}
					}
				}
			}
		}
	}
}
