package runners

import (
	"testing"

	"repro/internal/workloads"
)

// TestVerificationMatrix runs every benchmark's real computation under every
// registered GPU execution scheme plus static fusion, verifying all results,
// and runs the same tasks through the CPU pool, which charges each task's
// cycles and runs no kernel, so it must only complete them all — the
// integration matrix for the whole repository: 9 workloads x 6 schemes.
func TestVerificationMatrix(t *testing.T) {
	schemes := []struct {
		name string
		fn   func([]workloads.TaskDef, Config) Result
	}{
		{"fusion", RunFusion},
		{"pthreads", RunPThreads},
	}
	for _, s := range Schemes() {
		schemes = append(schemes, struct {
			name string
			fn   func([]workloads.TaskDef, Config) Result
		}{s.Key, s.Run})
	}
	names := []string{"MB", "FB", "BF", "CONV", "DCT", "MM", "SLUD", "3DES", "MPE"}
	for _, name := range names {
		b, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range schemes {
			s, b, name := s, b, name
			t.Run(name+"/"+s.name, func(t *testing.T) {
				opt := workloads.Options{Tasks: 10, Verify: true, Seed: 21, InputSize: 32}
				if name == "FB" || name == "BF" {
					opt.InputSize = 512
				}
				if name == "3DES" || name == "SLUD" || name == "MPE" {
					opt.InputSize = 0 // these size themselves
				}
				// Shared-memory variants only where the scheme supports it.
				if b.SupportsShared && s.name != "gemtc" && s.name != "pthreads" {
					opt.UseShared = true
				}
				tasks := b.Make(opt)
				cfg := smallCfg()
				r := s.fn(tasks, cfg)
				if r.Tasks != len(tasks) || r.Elapsed <= 0 {
					t.Fatalf("completed %d of %d in %v", r.Tasks, len(tasks), r.Elapsed)
				}
				if s.name == "pthreads" {
					return
				}
				for i, td := range tasks {
					if td.Check == nil {
						t.Fatalf("task %d missing Check", i)
					}
					if err := td.Check(); err != nil {
						t.Fatalf("task %d: %v", i, err)
					}
				}
			})
		}
	}
}

// TestIrregularMatrix repeats the matrix with §6.3-style pseudo-random input
// sizes and dynamic thread counts for the schemes that support them.
func TestIrregularMatrix(t *testing.T) {
	for _, s := range []struct {
		name string
		fn   func([]workloads.TaskDef, Config) Result
	}{
		{"pagoda", RunPagoda},
		{"hyperq", RunHyperQ},
		{"fusion", RunFusion},
	} {
		s := s
		t.Run(s.name, func(t *testing.T) {
			for _, name := range []string{"MB", "CONV", "MM", "3DES"} {
				b, _ := workloads.ByName(name)
				tasks := b.Make(workloads.Options{Tasks: 8, Verify: true, Irregular: true, Seed: 33})
				r := s.fn(tasks, smallCfg())
				if r.Tasks != 8 {
					t.Fatalf("%s: completed %d of 8", name, r.Tasks)
				}
				for i, td := range tasks {
					if err := td.Check(); err != nil {
						t.Fatalf("%s task %d: %v", name, i, err)
					}
				}
			}
		})
	}
}
