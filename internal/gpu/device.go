package gpu

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/trace"
)

// KernelFunc is device code, invoked once per warp. Simulated cost is
// charged through the Ctx op methods (Compute, GlobalRead, ...).
type KernelFunc func(ctx *Ctx)

// LaunchSpec describes a kernel launch (grid, block shape, resources).
type LaunchSpec struct {
	Name          string
	GridDim       int // number of threadblocks
	BlockThreads  int // threads per threadblock (<= 1024)
	SharedPerTB   int // bytes of shared memory per threadblock
	RegsPerThread int // register budget per thread (occupancy input)
	Fn            KernelFunc

	// ParkOn, when set, may return a signal for a warp to start parked on
	// instead of starting at dispatch (sim.Engine.StartOn): the warp's
	// process takes no start event and no coroutine until the signal wakes
	// it, and Fn then runs from the top. This is sound only for a warp
	// whose Fn begins as a Mesa-style waiter on that signal, re-checking
	// its predicate before it charges any cost or touches any other state,
	// so that starting parked is indistinguishable from starting and
	// waiting at once. A nil result, or a block the virtualization
	// coordinator charges a swap-in delay, starts the warp normally.
	ParkOn func(block, warp int) *sim.Signal
}

// WarpsPerTB returns the number of warps a threadblock occupies.
func (s LaunchSpec) WarpsPerTB(cfg Config) int {
	return (s.BlockThreads + cfg.ThreadsPerWarp - 1) / cfg.ThreadsPerWarp
}

// Kernel is an in-flight (or finished) kernel launch.
type Kernel struct {
	Spec     LaunchSpec
	dev      *Device
	tbsDone  int
	finished bool
	doneSig  sim.Signal

	StartTime sim.Time // first threadblock dispatched
	EndTime   sim.Time // last threadblock completed
	started   bool

	// tbs are the kernel's threadblocks; one holds the threadblock of a
	// single-block launch, which then needs no allocation of its own.
	tbs []threadBlock
	one [1]threadBlock
}

// RetireParked retires a warp that ParkOn started parked and that no
// wake-up has started yet: its Fn never runs, and it leaves its threadblock
// at once, as a warp whose Fn returns immediately would. A warp that is not
// resident, or has started, is left alone.
func (k *Kernel) RetireParked(block, warp int) {
	tb := &k.tbs[block]
	if tb.warps != nil && tb.warps[warp].proc.Retire() {
		k.dev.warpDone(tb)
	}
}

// WaitDone parks p until the kernel finishes.
func (k *Kernel) WaitDone(p *sim.Proc) {
	for !k.finished {
		k.doneSig.Wait(p)
	}
}

// threadBlock is one block of a kernel pending dispatch or resident on an
// SMM.
type threadBlock struct {
	kernel    *Kernel
	blockIdx  int
	smm       *SMM
	warpsLeft int
	// barrier is the __syncthreads() barrier, used only when the block has
	// more than one warp.
	barrier    Barrier
	placedAt   sim.Time
	spillDelay sim.Time // coordinator swap-in cost before warps may execute
	warps      []warp   // the resident warps, nil until the block is placed
}

// warp is one resident warp: the process that runs it, the Ctx its kernel
// function sees, and its threadblock. A threadblock's warps are allocated
// together when it is placed, so a warp costs no allocation of its own.
type warp struct {
	proc sim.Proc
	ctx  Ctx
	tb   *threadBlock
}

// Run is the warp's process body: the coordinator's swap-in delay, if any,
// then the kernel function.
func (w *warp) Run(p *sim.Proc) {
	tb := w.tb
	if tb.spillDelay > 0 {
		p.Sleep(tb.spillDelay)
	}
	tb.kernel.Spec.Fn(&w.ctx)
	tb.kernel.dev.warpDone(tb)
}

// String names the warp "<kernel>/tb<block>/w<warp>" for diagnostics; it is
// formatted only when read.
func (w *warp) String() string {
	return fmt.Sprintf("%s/tb%d/w%d", w.tb.kernel.Spec.Name, w.tb.blockIdx, w.ctx.WarpInBlock)
}

// SMM is one streaming multiprocessor: an issue engine plus resource
// accounting for resident threadblocks.
type SMM struct {
	dev *Device
	ID  int

	// issue shares IssueWidth warp-instructions per cycle among the ready
	// warps, at most one per warp.
	issue *sim.Share

	residentTBs     int
	residentThreads int
	residentWarps   int
	usedShared      int
	usedRegs        int

	// warpIntegral accumulates residentWarps dt for occupancy metrics.
	warpIntegral float64
	lastWarpUpd  sim.Time
}

func (m *SMM) settleWarps() {
	now := m.dev.Eng.Now()
	m.warpIntegral += float64(m.residentWarps) * (now - m.lastWarpUpd)
	m.lastWarpUpd = now
}

// fits reports whether a threadblock of the given spec can be placed now.
// The capacities are the device's admission caps: physical by default,
// oversubscribed when a virtualization coordinator is installed.
func (m *SMM) fits(spec LaunchSpec) bool {
	cfg := m.dev.Cfg
	caps := m.dev.caps
	warps := spec.WarpsPerTB(cfg)
	regs := spec.RegsPerThread * warps * cfg.ThreadsPerWarp
	return m.residentTBs+1 <= caps.tbs &&
		m.residentThreads+spec.BlockThreads <= caps.threads &&
		m.residentWarps+warps <= caps.warps &&
		m.usedShared+spec.SharedPerTB <= caps.shared &&
		m.usedRegs+regs <= caps.regs
}

func (m *SMM) place(tb *threadBlock) {
	cfg := m.dev.Cfg
	spec := tb.kernel.Spec
	warps := spec.WarpsPerTB(cfg)
	m.settleWarps()
	m.residentTBs++
	m.residentThreads += spec.BlockThreads
	m.residentWarps += warps
	m.usedShared += spec.SharedPerTB
	m.usedRegs += spec.RegsPerThread * warps * cfg.ThreadsPerWarp
	tb.smm = m
	if v := m.dev.Virt; v != nil {
		tb.spillDelay = v.admit(m, spec, warps)
	}
}

func (m *SMM) release(tb *threadBlock) {
	cfg := m.dev.Cfg
	spec := tb.kernel.Spec
	warps := spec.WarpsPerTB(cfg)
	m.settleWarps()
	m.residentTBs--
	m.residentThreads -= spec.BlockThreads
	m.residentWarps -= warps
	m.usedShared -= spec.SharedPerTB
	m.usedRegs -= spec.RegsPerThread * warps * cfg.ThreadsPerWarp
}

// FreeWarps returns the number of warp slots currently unoccupied.
func (m *SMM) FreeWarps() int { return m.dev.Cfg.WarpsPerSMM - m.residentWarps }

// Device is the simulated GPU.
type Device struct {
	Eng  *sim.Engine
	Cfg  Config
	SMMs []*SMM

	pending sim.FIFO[*threadBlock] // dispatch queue (head-of-line blocking, as in CUDA)

	membw *sim.Share // device-memory bandwidth, shared by all global accesses

	// Trace, when set, records kernel and threadblock spans.
	Trace *trace.Tracer

	// Virt, when non-nil, is the Zorua-style virtualization coordinator:
	// threadblocks are admitted against its oversubscribed capacities and
	// charged its spill cost. Nil means static (physical) admission.
	Virt *Coordinator

	// caps are the admission capacities tryDispatch enforces — physical
	// unless Virtualize has installed a coordinator.
	caps occCaps

	createdAt sim.Time
}

// NewDevice builds a device on the given engine.
func NewDevice(eng *sim.Engine, cfg Config) *Device {
	cfg.Validate()
	d := &Device{Eng: eng, Cfg: cfg, caps: physCaps(cfg), createdAt: eng.Now()}
	d.membw = sim.NewShare(eng, cfg.MemBandwidth, math.Inf(1))
	d.SMMs = make([]*SMM, cfg.NumSMMs)
	for i := range d.SMMs {
		d.SMMs[i] = &SMM{
			dev:         d,
			ID:          i,
			issue:       sim.NewShare(eng, cfg.IssueWidth, 1),
			lastWarpUpd: eng.Now(),
		}
	}
	return d
}

// Virtualize installs a dynamic-resource virtualization coordinator:
// subsequent threadblock dispatch admits against the oversubscribed
// capacities and pays the coordinator's spill cost whenever live demand
// exceeds physical capacity. With factors <= 1 this is a no-op (admission
// stays physical). It returns the coordinator for spill accounting.
func (d *Device) Virtualize(ov Oversub) *Coordinator {
	d.Virt = NewCoordinator(d.Cfg, ov)
	d.caps = d.Virt.caps
	return d.Virt
}

// Launch validates the spec and enqueues the kernel's threadblocks for
// dispatch. It returns immediately (launch overhead and stream ordering are
// the CUDA layer's concern).
func (d *Device) Launch(spec LaunchSpec) *Kernel {
	if spec.GridDim <= 0 || spec.BlockThreads <= 0 {
		panic(fmt.Sprintf("gpu: invalid launch %q: grid=%d block=%d", spec.Name, spec.GridDim, spec.BlockThreads))
	}
	if spec.BlockThreads > d.Cfg.MaxThreadsPerTB {
		panic(fmt.Sprintf("gpu: launch %q: %d threads/TB exceeds limit %d", spec.Name, spec.BlockThreads, d.Cfg.MaxThreadsPerTB))
	}
	if spec.SharedPerTB > d.Cfg.MaxSharedPerTB {
		panic(fmt.Sprintf("gpu: launch %q: %d B shared/TB exceeds limit %d", spec.Name, spec.SharedPerTB, d.Cfg.MaxSharedPerTB))
	}
	if spec.RegsPerThread <= 0 {
		spec.RegsPerThread = 32
	}
	if spec.RegsPerThread > d.Cfg.MaxRegsPerThread {
		spec.RegsPerThread = d.Cfg.MaxRegsPerThread
	}
	k := &Kernel{Spec: spec, dev: d}
	warpsPerTB := spec.WarpsPerTB(d.Cfg)
	k.tbs = k.one[:]
	if spec.GridDim > 1 {
		k.tbs = make([]threadBlock, spec.GridDim)
	}
	for b := range k.tbs {
		tb := &k.tbs[b]
		tb.kernel, tb.blockIdx, tb.warpsLeft = k, b, warpsPerTB
		tb.barrier.need = warpsPerTB
		d.pending.Push(tb)
	}
	d.tryDispatch()
	return k
}

// tryDispatch places queued threadblocks in FIFO order until the head no
// longer fits anywhere (head-of-line blocking, matching the hardware
// threadblock scheduler the paper contrasts with warp-level scheduling).
func (d *Device) tryDispatch() {
	for d.pending.Len() > 0 {
		tb := d.pending.Peek()
		smm := d.pickSMM(tb.kernel.Spec)
		if smm == nil {
			return
		}
		d.pending.Pop()
		smm.place(tb)
		tb.placedAt = d.Eng.Now()
		k := tb.kernel
		if !k.started {
			k.started = true
			k.StartTime = d.Eng.Now()
		}
		d.startWarps(tb)
	}
}

// pickSMM returns the SMM with the most free warp slots that fits the spec,
// or nil. Ties break toward the lowest ID for determinism.
func (d *Device) pickSMM(spec LaunchSpec) *SMM {
	var best *SMM
	for _, m := range d.SMMs {
		if !m.fits(spec) {
			continue
		}
		if best == nil || m.FreeWarps() > best.FreeWarps() {
			best = m
		}
	}
	return best
}

// startWarps starts one simulation process per warp of the threadblock.
func (d *Device) startWarps(tb *threadBlock) {
	spec := tb.kernel.Spec
	var bar *Barrier
	if spec.BlockThreads > d.Cfg.ThreadsPerWarp {
		bar = &tb.barrier
	}
	ws := make([]warp, spec.WarpsPerTB(d.Cfg))
	tb.warps = ws
	for i := range ws {
		w := &ws[i]
		w.tb = tb
		w.ctx = Ctx{
			dev:         d,
			smm:         tb.smm,
			proc:        &w.proc,
			BlockIdx:    tb.blockIdx,
			BlockDim:    spec.BlockThreads,
			WarpInBlock: i,
			blockBar:    bar,
		}
		if spec.ParkOn != nil && tb.spillDelay == 0 {
			if sig := spec.ParkOn(tb.blockIdx, i); sig != nil {
				d.Eng.StartOn(sig, &w.proc, w)
				continue
			}
		}
		d.Eng.Start(&w.proc, w)
	}
}

func (d *Device) warpDone(tb *threadBlock) {
	tb.warpsLeft--
	if tb.warpsLeft > 0 {
		return
	}
	tb.smm.release(tb)
	k := tb.kernel
	if d.Trace.Enabled() {
		d.Trace.Add(trace.Span{
			Name: fmt.Sprintf("%s/tb%d", k.Spec.Name, tb.blockIdx), Cat: "threadblock",
			Track: fmt.Sprintf("SMM%02d", tb.smm.ID), Start: tb.placedAt, End: d.Eng.Now(),
		})
	}
	k.tbsDone++
	if k.tbsDone == k.Spec.GridDim {
		k.finished = true
		k.EndTime = d.Eng.Now()
		if d.Trace.Enabled() {
			d.Trace.Add(trace.Span{
				Name: k.Spec.Name, Cat: "kernel", Track: "kernels",
				Start: k.StartTime, End: k.EndTime,
			})
		}
		k.doneSig.Broadcast()
	}
	d.tryDispatch()
}
