package runners

import (
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// fusedThreads is the uniform per-subtask thread count under static fusion
// (paper: 256).
const fusedThreads = 256

// RunFusion executes the task set as a single statically fused kernel
// (§6.3): every subtask becomes one threadblock of a monolithic launch with
// a uniform thread count (paper: 256) and uniform resource allocation — the
// shared-memory and register budget of the hungriest subtask ("the resource
// usage in static fusion schemes gets limited by the requirements of the
// most resource-hungry task"). All inputs are copied up front and all
// outputs after the kernel, and every task's latency is the whole kernel's
// makespan — fusion "performs the best if all tasks start and end together".
func RunFusion(tasks []workloads.TaskDef, cfg Config) Result {
	sys := newSystem(cfg)
	defer sys.eng.Close()

	// Uniform resources: the hungriest subtask sets the allocation for all.
	maxShared, maxRegs := 0, 32
	for i := range tasks {
		if tasks[i].SharedMem > maxShared {
			maxShared = tasks[i].SharedMem
		}
		if tasks[i].Regs > maxRegs {
			maxRegs = tasks[i].Regs
		}
	}

	var sharedPerTB [][]byte
	if maxShared > 0 {
		sharedPerTB = make([][]byte, len(tasks))
		for b := range sharedPerTB {
			sharedPerTB[b] = make([]byte, maxShared)
		}
	}

	var endTime sim.Time
	var avgLat, maxLat sim.Time
	sys.eng.Spawn("fusion-host", func(p *sim.Proc) {
		stream := sys.ctx.NewStream()
		start := sys.eng.Now()
		in, out := 0, 0
		for i := range tasks {
			if cfg.CopyData {
				in += tasks[i].InBytes
				out += tasks[i].OutBytes
			}
		}
		if in > 0 {
			stream.MemcpyH2D(p, in)
		}
		h := stream.Launch(p, gpu.LaunchSpec{
			Name:          "fused",
			GridDim:       len(tasks),
			BlockThreads:  fusedThreads,
			SharedPerTB:   maxShared,
			RegsPerThread: maxRegs,
			Fn: func(c *gpu.Ctx) {
				td := &tasks[c.BlockIdx]
				var shared []byte
				if sharedPerTB != nil && td.SharedMem > 0 {
					shared = sharedPerTB[c.BlockIdx][:td.SharedMem]
				}
				// The fused kernel gives every subtask the same, fixed
				// thread count regardless of its input size.
				t := c.Task()
				t.Bind(c, 1, 0, shared)
				td.Kernel(t)
				t.Drain()
			},
		})
		h.Wait(p)
		if out > 0 {
			stream.MemcpyD2H(p, out, nil)
			stream.Sync(p)
		}
		endTime = sys.eng.Now()
		avgLat = endTime - start // every task completes with the kernel
		maxLat = avgLat
	})
	sys.eng.Run()

	m := sys.dev.Metrics()
	return Result{
		Elapsed:    endTime,
		AvgLatency: avgLat,
		MaxLatency: maxLat,
		// Every task completes with the kernel: the distribution is a point
		// mass and all percentiles equal the makespan.
		P50Latency: avgLat,
		P90Latency: avgLat,
		P99Latency: avgLat,
		Occupancy:  m.AvgOccupancy,
		IssueUtil:  m.IssueUtil,
		Tasks:      len(tasks),
	}
}
