package runners

import (
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// The zorua scheme models Zorua-style dynamic resource virtualization
// (Vijaykumar et al., MICRO'16; arXiv 1802.02573 / 1805.02498) as a fourth
// contender beside Pagoda, CUDA-HyperQ and GeMTC: the host side is the
// kernel-per-task HyperQ path unchanged — one kernel per narrow task over 32
// streams — but the device admits threadblocks against oversubscribed
// (virtual) resource budgets and a runtime coordinator spills the overflow
// at a per-KB cycle price (gpu.Oversub / Device.Virtualize).
//
// Because zorua and HyperQ share the host path exactly, the zorua-vs-HyperQ
// delta isolates what dynamic resource virtualization alone buys: it helps
// where static occupancy is resource-bound (shared-memory or register-heavy
// kernels) and does nothing for the spawn-path bottleneck Pagoda attacks —
// the design-space point §2 of the paper argues around.

// zoruaOversub resolves the run's oversubscription factors: an unset
// Config.Oversub means the scheme default (1.5x on every virtualized
// resource); an explicit value — including explicit unity factors, which
// make zorua behave exactly like HyperQ — is used as given.
func zoruaOversub(cfg Config) gpu.Oversub {
	if cfg.Oversub == (gpu.Oversub{}) {
		return gpu.DefaultOversub()
	}
	return cfg.Oversub
}

// RunZorua executes each task as its own kernel over 32 streams on a
// virtualized device: the closed-loop zorua scheme.
func RunZorua(tasks []workloads.TaskDef, cfg Config) Result {
	return runKernelPerTask(tasks, cfg, zoruaOversub(cfg))
}

// newZoruaNode builds one virtualized kernel-per-task fleet node: HyperQ's
// host path and Start/Done semantics over an oversubscribed device.
func newZoruaNode(eng *sim.Engine, b nodeBase) fleetNode {
	return newKernelPerTaskNode(eng, b, zoruaOversub(b.cfg))
}
