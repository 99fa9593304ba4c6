package workloads

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/pcie"
	"repro/internal/sim"
)

func TestAllBenchmarksListed(t *testing.T) {
	names := []string{"MB", "FB", "BF", "CONV", "DCT", "MM", "SLUD", "3DES"}
	all := All()
	if len(all) != len(names) {
		t.Fatalf("All() returned %d benchmarks, want %d", len(all), len(names))
	}
	for i, b := range all {
		if b.Name != names[i] {
			t.Errorf("All()[%d] = %s, want %s", i, b.Name, names[i])
		}
		if _, err := ByName(b.Name); err != nil {
			t.Errorf("ByName(%s): %v", b.Name, err)
		}
	}
	if _, err := ByName("MPE"); err != nil {
		t.Errorf("ByName(MPE): %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) should fail")
	}
}

func TestTable3Characteristics(t *testing.T) {
	// Shared-memory and sync flags per Table 3.
	flags := map[string]struct{ shared, sync bool }{
		"MB": {false, false}, "FB": {false, true}, "BF": {false, false},
		"CONV": {false, false}, "DCT": {true, true}, "MM": {true, true},
		"SLUD": {false, false}, "3DES": {false, false},
	}
	for _, b := range All() {
		want := flags[b.Name]
		if b.SupportsShared != want.shared {
			t.Errorf("%s SupportsShared = %v, want %v", b.Name, b.SupportsShared, want.shared)
		}
		// "Requires threadblock synchronization" is a property of the tasks
		// Make returns.
		for i, task := range b.Make(Options{Tasks: 4, Seed: 1}) {
			if task.Sync != want.sync {
				t.Errorf("%s task %d Sync = %v, want %v", b.Name, i, task.Sync, want.sync)
			}
		}
	}
}

func TestMakeProducesRequestedTasks(t *testing.T) {
	for _, b := range All() {
		tasks := b.Make(Options{Tasks: 20, Seed: 1})
		if len(tasks) != 20 {
			t.Errorf("%s: Make produced %d tasks, want 20", b.Name, len(tasks))
		}
		for i, task := range tasks {
			if task.Kernel == nil {
				t.Fatalf("%s task %d has nil kernel", b.Name, i)
			}
			if task.Threads <= 0 || task.Threads > 992 {
				t.Errorf("%s task %d threads = %d", b.Name, i, task.Threads)
			}
			if task.CPUCycles <= 0 {
				t.Errorf("%s task %d has no CPU cost", b.Name, i)
			}
			if task.InBytes < 0 || task.OutBytes < 0 {
				t.Errorf("%s task %d negative copy sizes", b.Name, i)
			}
		}
	}
}

func TestThreadOverrideRespected(t *testing.T) {
	for _, b := range All() {
		for _, th := range []int{32, 64, 256} {
			tasks := b.Make(Options{Tasks: 3, Threads: th, Seed: 1})
			for _, task := range tasks {
				if task.Threads != th {
					t.Errorf("%s: threads = %d, want %d", b.Name, task.Threads, th)
				}
			}
		}
	}
}

func TestIrregularVariesWork(t *testing.T) {
	for _, name := range []string{"CONV", "MM", "FB", "3DES"} {
		b, _ := ByName(name)
		tasks := b.Make(Options{Tasks: 64, Irregular: true, Seed: 9})
		sizes := map[int]bool{}
		for _, task := range tasks {
			sizes[task.InBytes] = true
		}
		if len(sizes) < 3 {
			t.Errorf("%s: irregular mode produced only %d distinct input sizes", name, len(sizes))
		}
	}
}

func TestMPEInterleavesApplications(t *testing.T) {
	tasks := MPEBench().Make(Options{Tasks: 40, Seed: 2})
	if len(tasks) != 40 {
		t.Fatalf("MPE produced %d tasks, want 40", len(tasks))
	}
	// First four tasks are one from each application.
	kinds := map[string]bool{}
	for _, task := range tasks[:4] {
		kinds[task.Name] = true
	}
	if len(kinds) != 4 {
		t.Fatalf("MPE head = %v, want 4 distinct applications", kinds)
	}
}

// TestVerifyModeThroughPagoda runs every benchmark's tasks end-to-end through
// the real Pagoda runtime in verify mode and checks the computed results —
// the strongest correctness test in the package: scheduler, barriers, shared
// memory and kernels all in one.
func TestVerifyModeThroughPagoda(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			eng := sim.New()
			gcfg := gpu.TitanX()
			gcfg.NumSMMs = 2
			dev := gpu.NewDevice(eng, gcfg)
			bus := pcie.New(eng, pcie.Default())
			ctx := cuda.NewContext(eng, dev, bus, cuda.DefaultConfig())
			rt := core.NewRuntime(ctx, core.DefaultConfig())

			opts := Options{Tasks: 12, Verify: true, Seed: 3}
			if b.SupportsShared {
				opts.UseShared = true
			}
			if b.Name == "CONV" || b.Name == "DCT" {
				opts.InputSize = 32 // keep verify-mode math cheap
			}
			tasks := b.Make(opts)

			eng.Spawn("host", func(p *sim.Proc) {
				for i := range tasks {
					td := tasks[i]
					rt.TaskSpawn(p, core.TaskSpec{
						Threads:   td.Threads,
						Blocks:    td.Blocks,
						SharedMem: td.SharedMem,
						Sync:      td.Sync,
						ArgBytes:  td.ArgBytes,
						Kernel:    func(tc *core.TaskCtx) { td.Kernel(tc) },
					})
				}
				rt.WaitAll(p)
				rt.Shutdown(p)
			})
			eng.Run()

			for i, td := range tasks {
				if td.Check == nil {
					t.Fatalf("task %d has no Check in verify mode", i)
				}
				if err := td.Check(); err != nil {
					t.Fatalf("task %d: %v", i, err)
				}
			}
		})
	}
}

func TestGenerationDeterministic(t *testing.T) {
	for _, b := range All() {
		a := b.Make(Options{Tasks: 10, Irregular: true, Seed: 77})
		c := b.Make(Options{Tasks: 10, Irregular: true, Seed: 77})
		for i := range a {
			if a[i].InBytes != c[i].InBytes || a[i].Threads != c[i].Threads || a[i].CPUCycles != c[i].CPUCycles {
				t.Errorf("%s: task %d differs across identical seeds", b.Name, i)
			}
		}
	}
}
