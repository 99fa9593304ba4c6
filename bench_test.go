// Package-level benchmarks: one per table and figure of the paper's
// evaluation (regenerated at reduced scale through the harness — run
// cmd/pagodabench for full-scale sweeps and EXPERIMENTS.md for recorded
// results), plus microbenchmarks of the runtime's hot paths.
package pagoda

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/runners"
	"repro/internal/workloads"
)

// benchParams keeps one harness regeneration per benchmark iteration small
// enough for testing.B. Shapes (who wins, crossovers) are preserved.
func benchParams() harness.Params {
	return harness.Params{Tasks: 96, SMMs: 8, Seed: 1, Misbehave: 1}
}

func benchmarkExperiment(b *testing.B, id string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := harness.Run(id, benchParams())
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkTable3 regenerates the workload-characteristics table (HyperQ
// copy/compute split).
func BenchmarkTable3(b *testing.B) { benchmarkExperiment(b, "table3") }

// BenchmarkFig5 regenerates the overall performance comparison.
func BenchmarkFig5(b *testing.B) { benchmarkExperiment(b, "fig5") }

// BenchmarkFig6 regenerates the weak-scaling study.
func BenchmarkFig6(b *testing.B) { benchmarkExperiment(b, "fig6") }

// BenchmarkFig7 regenerates the threads-per-task compute-time study.
func BenchmarkFig7(b *testing.B) { benchmarkExperiment(b, "fig7") }

// BenchmarkFig8 regenerates the input-size x thread-count study.
func BenchmarkFig8(b *testing.B) { benchmarkExperiment(b, "fig8") }

// BenchmarkFig9 regenerates the irregular-task static-fusion comparison.
func BenchmarkFig9(b *testing.B) { benchmarkExperiment(b, "fig9") }

// BenchmarkFig10 regenerates the average-task-latency study.
func BenchmarkFig10(b *testing.B) { benchmarkExperiment(b, "fig10") }

// BenchmarkFig11 regenerates the continuous-spawning/pipelining ablation.
func BenchmarkFig11(b *testing.B) { benchmarkExperiment(b, "fig11") }

// BenchmarkTable5 regenerates the shared-memory management analysis.
func BenchmarkTable5(b *testing.B) { benchmarkExperiment(b, "table5") }

// --- scheme-level benchmarks: one full run per iteration ---

func benchScheme(b *testing.B, fn func([]workloads.TaskDef, runners.Config) runners.Result) {
	bench, _ := workloads.ByName("MB")
	cfg := runners.DefaultConfig()
	cfg.SMMs = 8
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tasks := bench.Make(workloads.Options{Tasks: 256, Threads: 128, Seed: 1})
		r := fn(tasks, cfg)
		if r.Tasks != 256 {
			b.Fatalf("incomplete run: %d tasks", r.Tasks)
		}
	}
}

// BenchmarkSchemePagoda measures a 256-task Pagoda run end to end.
func BenchmarkSchemePagoda(b *testing.B) { benchScheme(b, runners.RunPagoda) }

// BenchmarkSchemeHyperQ measures the CUDA-HyperQ baseline.
func BenchmarkSchemeHyperQ(b *testing.B) { benchScheme(b, runners.RunHyperQ) }

// BenchmarkSchemeGeMTC measures the GeMTC baseline.
func BenchmarkSchemeGeMTC(b *testing.B) { benchScheme(b, runners.RunGeMTC) }

// BenchmarkSchemeFusion measures the static-fusion baseline.
func BenchmarkSchemeFusion(b *testing.B) { benchScheme(b, runners.RunFusion) }

// BenchmarkTaskSpawnThroughput measures the Pagoda spawn+execute round trip
// for minimal tasks (the TaskTable hot path).
func BenchmarkTaskSpawnThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys := New(DefaultConfig())
		sys.Run(func(h *Host) {
			for j := 0; j < 512; j++ {
				h.Spawn(Task{Threads: 32, Kernel: func(tc *TaskCtx) { tc.Compute(100) }})
			}
			h.WaitAll()
		})
		if sys.Stats().Completed != 512 {
			b.Fatal("incomplete")
		}
	}
	b.ReportMetric(float64(b.N*512), "tasks")
}

// BenchmarkEngineFig5Macro is the macro benchmark behind the engine hot-path
// work: one full fig5 regeneration per iteration, dominated by event-queue
// churn, timer re-keying and proc switches in internal/sim. Compare against
// BENCH_sim.json; run with -benchtime=3x or higher for stable numbers.
func BenchmarkEngineFig5Macro(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := harness.Run("fig5", harness.Params{Tasks: 256, SMMs: 8, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatal("fig5 produced no rows")
		}
	}
}
