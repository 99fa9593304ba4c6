package runners

import (
	"fmt"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/serve"
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
	return runKernelPerTask(tasks, cfg, 1)
}

// runKernelPerTask is the shared kernel-per-task closed-loop engine: HyperQ
// runs it on the static device (factor 1), zorua on one virtualized by
// oversub > 1 — the two schemes differ only in how the device admits
// threadblocks. Unlike
// Pagoda's and GeMTC's it is not a one-node fleet: each of its spawners
// hosts waits on its handles in order, so latency is host-observed
// (DESIGN.md §7).
func runKernelPerTask(tasks []workloads.TaskDef, cfg Config, oversub float64) Result {
	sys := newSystem(cfg)
	defer sys.eng.Close()
	if oversub > 1 {
		sys.dev.Virtualize(oversub)
	}
	const numStreams = 32
	streams := make([]*cuda.Stream, numStreams)
	for i := range streams {
		streams[i] = sys.ctx.NewStream()
	}

	parts := splitRoundRobin(tasks, spawners)

	recs := make([]serve.Record, 0, len(tasks))

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
					stream.MemcpyH2D(p, td.InBytes)
				}
				h := stream.Launch(p, hyperqSpec(td))
				if cfg.CopyData && td.OutBytes > 0 {
					stream.MemcpyD2H(p, td.OutBytes, nil)
				}
				handles = append(handles, h)
			}
			for i, h := range handles {
				h.Wait(p)
				recs = append(recs, serve.Record{Submit: spawnTimes[i], Start: spawnTimes[i], Done: sys.eng.Now()})
			}
			for _, st := range streams {
				st.Sync(p)
			}
		})
	}
	end := sys.eng.Run()

	m := sys.dev.Metrics()
	r := recordsResult(end, recs)
	r.Occupancy, r.IssueUtil = m.AvgOccupancy, m.IssueUtil
	return r
}

// hyperqSpec builds the per-task kernel launch; each warp binds its own
// Task. The task's per-block shared memory is one arena, allocated on the
// first Shared() of any of its blocks, so a timing-only run allocates none.
func hyperqSpec(td *workloads.TaskDef) gpu.LaunchSpec {
	var arena *[]byte
	if td.SharedMem > 0 {
		arena = new([]byte)
	}
	return gpu.LaunchSpec{
		Name:          "hq-" + td.Name,
		GridDim:       td.Blocks,
		BlockThreads:  td.Threads,
		SharedPerTB:   td.SharedMem,
		RegsPerThread: td.Regs,
		Fn: func(c *gpu.Ctx) {
			t := c.Task()
			t.Bind(c, td.Blocks, c.BlockIdx)
			if arena != nil {
				t.UseArena(arena, td.Blocks*td.SharedMem, c.BlockIdx*td.SharedMem, td.SharedMem)
			}
			td.Kernel(t)
			t.Drain()
		},
	}
}

// Every scheme hands its task kernels a gpu.Task.
var _ workloads.DeviceCtx = (*gpu.Task)(nil)

// taskWarps returns the physical warp count for a task's threadblock.
func taskWarps(threads int) int { return (threads + 31) / 32 }
