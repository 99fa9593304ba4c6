// netencrypt: a network-router scenario after the paper's 3DES benchmark —
// packets of 2K-64K bytes arrive continuously and each is encrypted with
// Triple-DES as one narrow task. Encryption is real (FIPS 46-3 EDE3): every
// packet's ciphertext is checked against one computed on the host when the
// packets were built. It also contrasts Pagoda against the CUDA-HyperQ
// baseline on a longer, timing-only packet trace.
package main

import (
	"fmt"
	"log"

	"repro/internal/runners"
	"repro/internal/workloads"

	"repro"
)

func main() {
	const (
		verified = 48  // packets encrypted for real and checked
		traced   = 600 // timing-only packets in the Pagoda vs HyperQ comparison
	)

	bench, err := workloads.ByName("3DES")
	if err != nil {
		log.Fatal(err)
	}

	// Pagoda run through the public API, with real encryption.
	tasks := bench.Make(workloads.Options{Tasks: verified, Verify: true, Seed: 42})
	sys := pagoda.New(pagoda.DefaultConfig())
	endNs := sys.Run(func(h *pagoda.Host) {
		for i := range tasks {
			td := &tasks[i]
			h.CopyToDevice(td.InBytes)
			h.Spawn(pagoda.Task{
				Threads:  td.Threads,
				ArgBytes: td.ArgBytes,
				Kernel:   func(tc *pagoda.TaskCtx) { td.Kernel(tc) },
			})
		}
		h.WaitAll()
	})
	for i := range tasks {
		if err := tasks[i].Check(); err != nil {
			log.Fatalf("packet %d failed verification: %v", i, err)
		}
	}
	fmt.Printf("encrypted %d packets in %.2f ms simulated; %v\n", verified, endNs/1e6, sys.Stats())

	// A longer trace under Pagoda and CUDA-HyperQ (timing-only), for
	// comparison.
	mk := func() []workloads.TaskDef {
		return bench.Make(workloads.Options{Tasks: traced, Seed: 42})
	}
	cfg := runners.DefaultConfig()
	pg := runners.RunPagoda(mk(), cfg)
	hq := runners.RunHyperQ(mk(), cfg)
	fmt.Printf("router throughput over %d packets: Pagoda %.2f ms vs CUDA-HyperQ %.2f ms (%.2fx)\n",
		traced, pg.Elapsed/1e6, hq.Elapsed/1e6, hq.Elapsed/pg.Elapsed)
	fmt.Printf("per-packet latency: Pagoda %.1f us avg vs HyperQ %.1f us avg\n",
		pg.AvgLatency/1e3, hq.AvgLatency/1e3)
}
