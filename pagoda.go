// Package pagoda is the public facade of the Pagoda reproduction: a GPU
// runtime system that virtualizes GPU resources with a persistent
// MasterKernel and schedules narrow tasks (< 500 threads) at warp
// granularity, after "Pagoda: Fine-Grained GPU Resource Virtualization for
// Narrow Tasks" (PPoPP 2017).
//
// The GPU itself is a deterministic discrete-event simulator with the
// Maxwell Titan X geometry (see DESIGN.md for the substitution rationale).
// A System bundles the full stack — simulation engine, device, PCIe bus,
// CUDA-like runtime and the Pagoda core — behind the paper's Table 1 API:
//
//	sys := pagoda.New(pagoda.DefaultConfig())
//	sys.Run(func(h *pagoda.Host) {
//	    id := h.Spawn(pagoda.Task{
//	        Threads: 128,
//	        Kernel: func(tc *pagoda.TaskCtx) {
//	            tc.ForEachLane(func(tid int) { /* per-thread work */ })
//	            tc.Compute(500)
//	        },
//	    })
//	    h.Wait(id)
//	})
//	fmt.Println(sys.Stats())
package pagoda

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// TaskCtx is the device-side API handed to task kernels (getTid, syncBlock,
// getSMPtr and the cost-charging operations). It is valid only for the
// duration of the kernel call: an executor warp reuses it for its next task,
// so a kernel must not keep the pointer after it returns.
type TaskCtx = core.TaskCtx

// TaskID identifies a spawned task.
type TaskID = core.TaskID

// Kernel is Pagoda device code, invoked once per executor warp.
type Kernel = core.TaskKernel

// Task describes one narrow task (the taskSpawn arguments of Table 1).
type Task struct {
	Threads   int // threads per threadblock (default 128)
	Blocks    int // threadblocks (default 1)
	SharedMem int // bytes of shared memory per threadblock
	Sync      bool
	ArgBytes  int
	Args      any
	Kernel    Kernel
}

// Config assembles the stack's tunables.
type Config struct {
	GPU    gpu.Config  // device geometry (default: Maxwell Titan X)
	Bus    pcie.Config // PCIe model
	CUDA   cuda.Config // streams / HyperQ / launch overhead
	Pagoda core.Config // TaskTable, MTB and allocator parameters
}

// DefaultConfig returns the paper's full configuration (Maxwell Titan X).
func DefaultConfig() Config {
	return Config{
		GPU:    gpu.TitanX(),
		Bus:    pcie.Default(),
		CUDA:   cuda.DefaultConfig(),
		Pagoda: core.DefaultConfig(),
	}
}

// K40Config returns the stack configured for the paper's second validation
// platform, the Kepler Tesla K40 (smaller shared memory per SMX, so the MTB
// arenas shrink to 16 KB).
func K40Config() Config {
	g := gpu.TeslaK40()
	return Config{
		GPU:    g,
		Bus:    pcie.Default(),
		CUDA:   cuda.DefaultConfig(),
		Pagoda: core.DefaultConfigFor(g),
	}
}

// System is an assembled simulation stack with a running MasterKernel.
type System struct {
	Engine  *sim.Engine
	Device  *gpu.Device
	Bus     *pcie.Bus
	CUDA    *cuda.Context
	Runtime *core.Runtime
}

// New builds a system and launches the MasterKernel.
func New(cfg Config) *System {
	eng := sim.New()
	dev := gpu.NewDevice(eng, cfg.GPU)
	bus := pcie.New(eng, cfg.Bus)
	ctx := cuda.NewContext(eng, dev, bus, cfg.CUDA)
	rt := core.NewRuntime(ctx, cfg.Pagoda)
	return &System{Engine: eng, Device: dev, Bus: bus, CUDA: ctx, Runtime: rt}
}

// Host is a CPU thread inside the simulation: the receiver for the paper's
// CPU-side API.
type Host struct {
	sys  *System
	proc *sim.Proc
}

// Spawn launches a task onto Pagoda (taskSpawn). Non-blocking; returns the
// TaskID used by Wait and Check.
func (h *Host) Spawn(t Task) TaskID {
	if t.Threads == 0 {
		t.Threads = 128
	}
	if t.Blocks == 0 {
		t.Blocks = 1
	}
	return h.sys.Runtime.TaskSpawn(h.proc, core.TaskSpec{
		Threads:   t.Threads,
		Blocks:    t.Blocks,
		SharedMem: t.SharedMem,
		Sync:      t.Sync,
		ArgBytes:  t.ArgBytes,
		Args:      t.Args,
		Kernel:    t.Kernel,
	})
}

// Wait blocks until the task is over (wait).
func (h *Host) Wait(id TaskID) { h.sys.Runtime.Wait(h.proc, id) }

// Check returns true if the task is done (check).
func (h *Host) Check(id TaskID) bool { return h.sys.Runtime.Check(h.proc, id) }

// WaitAll blocks until every spawned task is over (waitAll).
func (h *Host) WaitAll() { h.sys.Runtime.WaitAll(h.proc) }

// CopyToDevice models a host-to-device input copy of n bytes (synchronous).
func (h *Host) CopyToDevice(n int) { h.sys.CUDA.MemcpyH2DSync(h.proc, n) }

// CopyFromDevice models a device-to-host output copy of n bytes.
func (h *Host) CopyFromDevice(n int) { h.sys.CUDA.MemcpyD2HSync(h.proc, n) }

// Sleep advances this host thread's clock (ns of simulated time).
func (h *Host) Sleep(ns float64) { h.proc.Sleep(ns) }

// Now returns the simulated time in nanoseconds.
func (h *Host) Now() float64 { return h.proc.Now() }

// Go starts another host thread running body concurrently (the paper's
// multi-threaded spawner pattern, Fig. 1a).
func (h *Host) Go(name string, body func(*Host)) {
	h.sys.Engine.Spawn(name, func(p *sim.Proc) {
		body(&Host{sys: h.sys, proc: p})
	})
}

// Run executes body as the main host thread, shuts the runtime down when it
// returns, and drains the simulation. It returns the final simulated time in
// nanoseconds. A System runs once: Run closes its engine, so the run leaves
// no goroutine behind, and Stats stays readable afterwards.
func (s *System) Run(body func(*Host)) float64 {
	defer s.Engine.Close()
	s.Engine.Spawn("host-main", func(p *sim.Proc) {
		body(&Host{sys: s, proc: p})
		s.Runtime.Shutdown(p)
	})
	return s.Engine.Run()
}

// Stats summarizes the run.
type Stats struct {
	Spawned      int
	Completed    int
	Failed       int // kernels that panicked (Config.Pagoda.IsolateKernelPanics)
	AvgLatencyNs float64
	MaxLatencyNs float64
	Occupancy    float64 // task-warp occupancy over the run
	IssueUtil    float64
}

// Stats gathers runtime and device statistics.
func (s *System) Stats() Stats {
	st := s.Runtime.Stats()
	m := s.Device.Metrics()
	return Stats{
		Spawned:      st.Spawned,
		Completed:    st.Completed,
		Failed:       st.Failed,
		AvgLatencyNs: st.AvgLatency,
		MaxLatencyNs: st.MaxLatency,
		Occupancy:    s.Runtime.TaskWarpOccupancy(s.Engine.Now()),
		IssueUtil:    m.IssueUtil,
	}
}

func (st Stats) String() string {
	return fmt.Sprintf("tasks %d/%d done, avg latency %.1fus (max %.1fus), task-warp occupancy %.1f%%, issue util %.1f%%",
		st.Completed, st.Spawned, st.AvgLatencyNs/1e3, st.MaxLatencyNs/1e3, st.Occupancy*100, st.IssueUtil*100)
}
