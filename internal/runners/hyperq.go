package runners

import (
	"fmt"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// RunHyperQ executes each task as its own CUDA kernel over 32 streams, the
// paper's CUDA-HyperQ baseline (CUDA_DEVICE_MAX_CONNECTIONS=32). Each task's
// stream carries its input copy, kernel and output copy; kernels from
// different streams overlap up to the HyperQ connection limit, but the
// hardware schedules at threadblock granularity and a narrow task's kernel
// occupies very little of the device.
func RunHyperQ(tasks []workloads.TaskDef, cfg Config) Result {
	return runKernelPerTask(tasks, cfg, gpu.Oversub{})
}

// runKernelPerTask is the shared kernel-per-task closed-loop engine: HyperQ
// runs it on the static device (zero Oversub), zorua on a virtualized one —
// the two schemes differ only in how the device admits threadblocks. Unlike
// Pagoda's and GeMTC's it is not a one-node fleet: each of its Spawners
// hosts waits on its handles in order, so latency is host-observed
// (DESIGN.md §7).
func runKernelPerTask(tasks []workloads.TaskDef, cfg Config, ov gpu.Oversub) Result {
	sys := newSystem(cfg)
	if ov.Enabled() {
		sys.dev.Virtualize(ov)
	}
	const numStreams = 32
	streams := make([]*cuda.Stream, numStreams)
	for i := range streams {
		streams[i] = sys.ctx.NewStream()
	}

	spawners := cfg.Spawners
	if spawners <= 0 {
		spawners = 1
	}
	parts := splitRoundRobin(tasks, spawners)

	lats := make([]sim.Time, 0, len(tasks))

	for s := 0; s < spawners; s++ {
		s := s
		sys.eng.Spawn(fmt.Sprintf("hq-host%d", s), func(p *sim.Proc) {
			var handles []*cuda.KernelHandle
			var spawnTimes []sim.Time
			for _, ti := range parts[s] {
				td := &tasks[ti]
				stream := streams[ti%numStreams]
				spawnTimes = append(spawnTimes, sys.eng.Now())
				if cfg.CopyData && td.InBytes > 0 {
					stream.MemcpyH2D(p, td.InBytes, nil)
				}
				h := stream.Launch(p, hyperqSpec(td))
				if cfg.CopyData && td.OutBytes > 0 {
					stream.MemcpyD2H(p, td.OutBytes, nil)
				}
				handles = append(handles, h)
			}
			for i, h := range handles {
				h.Wait(p)
				lats = append(lats, sys.eng.Now()-spawnTimes[i])
			}
			for _, st := range streams {
				st.Sync(p)
			}
		})
	}
	end := sys.eng.Run()

	m := sys.dev.Metrics()
	r := Result{
		Elapsed:   end,
		Occupancy: m.AvgOccupancy,
		IssueUtil: m.IssueUtil,
		Tasks:     len(lats),
	}
	r.fillLatencies(lats)
	return r
}

// hyperqSpec builds the per-task kernel launch.
func hyperqSpec(td *workloads.TaskDef) gpu.LaunchSpec {
	var sharedPerTB [][]byte
	if td.SharedMem > 0 {
		sharedPerTB = make([][]byte, td.Blocks)
		for b := range sharedPerTB {
			sharedPerTB[b] = make([]byte, td.SharedMem)
		}
	}
	regs := td.Regs
	if regs <= 0 {
		regs = 32
	}
	return gpu.LaunchSpec{
		Name:          "hq-" + td.Name,
		GridDim:       td.Blocks,
		BlockThreads:  td.Threads,
		SharedPerTB:   td.SharedMem,
		RegsPerThread: regs,
		Fn: func(c *gpu.Ctx) {
			var shared []byte
			if sharedPerTB != nil {
				shared = sharedPerTB[c.BlockIdx]
			}
			td.Kernel(&warpAdapter{
				g:        c,
				threads:  td.Threads,
				blocks:   td.Blocks,
				blockIdx: c.BlockIdx,
				warpInBl: c.WarpInBlock,
				shared:   shared,
			})
		},
	}
}
