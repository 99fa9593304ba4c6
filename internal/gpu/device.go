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

	// Resume runs on the event loop at the start of each of the launch's
	// warps and at each wake-up after, except those of a running Fn and of
	// a cost tape the warp replays: a warp is a sim proc that borrows a
	// coroutine only to run Fn. A warp of a threadblock the virtualization
	// coordinator spilled first waits out the block's swap-in delay, so
	// its first Resume runs that long after placement. Resume must not
	// block: it charges with the non-blocking ops (ComputeThen,
	// SyncIssueThen, SyncArriveThen, AtomicSite.Enter and Leave, or
	// Signal.Park on c.Proc()) and returns false once one of them has armed
	// the warp's wake-up. It returns true to run Fn, after which it runs
	// again, and false with nothing armed to end the warp. Left nil, it
	// runs Fn once and then ends the warp.
	Resume func(c *Ctx) bool
	// OnDemand starts only warp 0 of a block when the block is placed; the
	// launcher starts each other warp with Kernel.StartWarp when it has
	// work for it. The block holds its full residency all the same, and
	// stays resident until the last warp it started has exited.
	OnDemand bool
}

// WarpsPerTB returns the number of warps a threadblock occupies.
func (s LaunchSpec) WarpsPerTB(cfg Config) int {
	return (s.BlockThreads + cfg.ThreadsPerWarp - 1) / cfg.ThreadsPerWarp
}

// Kernel is an in-flight (or finished) kernel launch.
type Kernel struct {
	Spec     LaunchSpec
	tbsDone  int
	finished bool
	doneSig  sim.Signal

	StartTime sim.Time // first threadblock dispatched
	EndTime   sim.Time // last threadblock completed
	started   bool

	// tbs are the kernel's threadblocks; one holds the threadblock of a
	// single-block launch, which then needs no allocation of its own. A
	// wider grid takes the device's spare array when it fits and hands its
	// own back when it finishes.
	tbs []threadBlock
	one [1]threadBlock
}

// WaitDone parks p until the kernel finishes.
func (k *Kernel) WaitDone(p *sim.Proc) {
	for !k.finished {
		k.doneSig.Wait(p)
	}
}

// StartWarp starts warp warpInBlock of a resident block of an OnDemand
// kernel, on a warp from the device's free list, as placement starts warp
// 0; the block counts it among its live warps until it exits. It panics
// for a kernel launched without OnDemand, for warp 0 or an index out of
// range, and for a block outside the grid, queued or done.
func (k *Kernel) StartWarp(block, warpInBlock int) {
	if !k.Spec.OnDemand {
		panic(fmt.Sprintf("gpu: StartWarp on kernel %q, launched without OnDemand", k.Spec.Name))
	}
	var tb *threadBlock
	if !k.finished && block >= 0 && block < k.Spec.GridDim {
		tb = &k.tbs[block]
	}
	if tb == nil || tb.smm == nil || tb.warpsLeft == 0 {
		panic(fmt.Sprintf("gpu: StartWarp on block %d of kernel %q, which is not resident", block, k.Spec.Name))
	}
	d := tb.smm.dev
	if n := k.Spec.WarpsPerTB(d.Cfg); warpInBlock <= 0 || warpInBlock >= n {
		panic(fmt.Sprintf("gpu: StartWarp on warp %d of kernel %q: placement starts warp 0 of %d", warpInBlock, k.Spec.Name, n))
	}
	tb.warpsLeft++
	w := d.popFree()
	if w == nil {
		w = new(warp)
	}
	d.startWarp(w, tb, warpInBlock)
}

// threadBlock is one block of a kernel pending dispatch or resident on an
// SMM.
type threadBlock struct {
	kernel   *Kernel
	blockIdx int
	smm      *SMM
	// warpsLeft counts the block's live warps: all of them from placement,
	// or, for an OnDemand kernel, warp 0 and those StartWarp started.
	warpsLeft int
	// barrier is the __syncthreads() barrier, used only when the block has
	// more than one warp.
	barrier    Barrier
	placedAt   sim.Time
	spillDelay sim.Time // coordinator swap-in cost before warps may execute
}

// warp is one resident warp: the process that runs it, the Ctx its kernel
// function sees, which names its threadblock, and the state its Resume
// reads. A warp that exits goes to its device's free list, and a later
// threadblock's warp reuses it; warps are allocated only when the list runs
// short, a dispatch's shortfall in one array. startWarp rewrites the whole
// Ctx, so while the warp is free its ctx.w, otherwise the warp itself,
// links the next free warp, and the list costs no storage of its own.
type warp struct {
	proc sim.Proc
	ctx  Ctx
	// tape is the slab handle of the tape the warp is replaying while stage
	// is not zero (tape.go).
	tape  uint32
	stage uint8
	// phase is where the warp is in its kernel function.
	phase uint8
}

// A warp's phase: the coordinator's swap-in delay not yet waited; Fn not
// yet run, or between two runs of it; Fn running, perhaps blocked; Fn
// returned.
const (
	phaseSwapIn uint8 = iota
	phaseStart
	phaseFn
	phaseRan
)

// Run runs the warp's Fn, and runs it again for as long as the warp's
// Resume, called on this coroutine once Fn returns, asks for it.
func (w *warp) Run(p *sim.Proc) {
	for {
		w.phase = phaseFn
		w.ctx.tb.kernel.Spec.Fn(&w.ctx)
		w.phase = phaseRan
		if !w.Resume(p) {
			return
		}
	}
}

// Resume runs at the warp's start and at every wake-up: it waits out the
// swap-in delay of a spilled threadblock, replays the next stage of a
// draining tape, continues a blocked Fn, or else runs the launch's Resume,
// and ends the warp when that arms nothing and asks for no Run.
func (w *warp) Resume(p *sim.Proc) bool {
	switch {
	case w.stage != 0:
		w.replay()
		return false
	case w.phase == phaseSwapIn:
		w.phase = phaseStart
		p.WakeAfter(w.ctx.tb.spillDelay)
		return false
	case w.phase == phaseFn:
		return true
	case w.ctx.tb.kernel.Spec.Resume(&w.ctx):
		return true
	}
	if !p.Armed() {
		w.exit()
	}
	return false
}

// runOnce is the Resume of a launch that sets none: run Fn once, then end
// the warp.
func runOnce(c *Ctx) bool { return c.w.phase == phaseStart }

// exit leaves the warp's threadblock once its kernel is done with it, and
// frees the warp for reuse. It joins the free list only after warpDone, so
// the threadblocks that call places take none but finished warps: nothing
// runs between exit's return and the end of the warp's proc.
func (w *warp) exit() {
	w.ctx.assertDrained()
	d := w.ctx.dev
	d.warpDone(w.ctx.tb)
	w.ctx.w, d.free = d.free, w
}

// String names the warp "<kernel>/tb<block>/w<warp>" for diagnostics; it is
// formatted only when read.
func (w *warp) String() string {
	return fmt.Sprintf("%s/tb%d/w%d", w.ctx.tb.kernel.Spec.Name, w.ctx.BlockIdx, w.ctx.WarpInBlock)
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

	// rec is the task tape being recorded, nil when none is (tape.go), and
	// recID its slab handle. Only the warp whose body runs records.
	rec   *tape
	recID uint32

	// free heads the list of exited warps whose procs have finished, for
	// startWarp to reuse. A warp is allocated only when it runs short, so
	// the list never holds more than the device's peak resident warps plus
	// the one exiting while warpDone places the next threadblock.
	free *warp
	// spareTBs is the threadblock array of a finished multi-block kernel,
	// kept for the next launch whose grid fits in it.
	spareTBs []threadBlock
}

// NewDevice builds a device on the given engine.
func NewDevice(eng *sim.Engine, cfg Config) *Device {
	cfg.Validate()
	d := &Device{Eng: eng, Cfg: cfg, caps: physCaps(cfg), createdAt: eng.Now()}
	// The fixed latencies a warp waits (Ctx.latency's four, and the two
	// atomic sites' service times) get lanes of their own in the engine.
	for _, lat := range [...]float64{cfg.GlobalLatency, cfg.GlobalLatency / 8, cfg.SharedLatency,
		cfg.SharedLatency / 2, cfg.AtomicGlobalLatency, cfg.AtomicSharedLatency} {
		eng.RegisterDelay(lat)
	}
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
// subsequent threadblock dispatch admits against every per-SMM capacity
// scaled by factor and pays the coordinator's spill cost whenever live
// demand exceeds physical capacity. With factor <= 1 admission stays
// physical and no spill is ever charged. It returns the coordinator for
// spill accounting, and panics on a factor Config.CheckOversub refuses.
func (d *Device) Virtualize(factor float64) *Coordinator {
	if err := d.Cfg.CheckOversub(factor); err != nil {
		panic("gpu: Virtualize: " + err.Error())
	}
	d.Virt = &Coordinator{}
	d.caps = virtualCaps(d.Cfg, factor)
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
	if spec.Resume == nil {
		spec.Resume = runOnce
	}
	if spec.RegsPerThread <= 0 {
		spec.RegsPerThread = 32
	}
	if spec.RegsPerThread > d.Cfg.MaxRegsPerThread {
		spec.RegsPerThread = d.Cfg.MaxRegsPerThread
	}
	k := &Kernel{Spec: spec}
	warpsPerTB := spec.WarpsPerTB(d.Cfg)
	live := warpsPerTB
	if spec.OnDemand {
		live = 1
	}
	switch {
	case spec.GridDim == 1:
		k.tbs = k.one[:]
	case cap(d.spareTBs) >= spec.GridDim:
		k.tbs, d.spareTBs = d.spareTBs[:spec.GridDim], nil
	default:
		k.tbs = make([]threadBlock, spec.GridDim)
	}
	for b := range k.tbs {
		tb := &k.tbs[b]
		// A reused barrier has no waiters and keeps their storage.
		*tb = threadBlock{
			kernel: k, blockIdx: b, warpsLeft: live,
			barrier: Barrier{need: warpsPerTB, sig: tb.barrier.sig},
		}
		d.pending.Push(tb)
	}
	d.tryDispatch()
	return k
}

// tryDispatch places queued threadblocks in FIFO order until the head no
// longer fits anywhere (head-of-line blocking, matching the hardware
// threadblock scheduler the paper contrasts with warp-level scheduling).
// It then starts the placed blocks' live warps (warp 0 alone for an
// OnDemand kernel) block by block, on warps from the free list topped up
// with one new array for the whole shortfall.
func (d *Device) tryDispatch() {
	placed, live := 0, 0
	for _, tb := range d.pending.Items() {
		smm := d.pickSMM(tb.kernel.Spec)
		if smm == nil {
			break
		}
		smm.place(tb)
		tb.placedAt = d.Eng.Now()
		k := tb.kernel
		if !k.started {
			k.started = true
			k.StartTime = d.Eng.Now()
		}
		placed++
		live += tb.warpsLeft
	}
	var fresh []warp
	for ; placed > 0; placed-- {
		tb := d.pending.Pop()
		for i := 0; i < tb.warpsLeft; i++ {
			w := d.popFree()
			if w == nil {
				if len(fresh) == 0 {
					fresh = make([]warp, live)
				}
				w, fresh = &fresh[0], fresh[1:]
			}
			d.startWarp(w, tb, i)
			live--
		}
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

// popFree takes the head of the free list, or nil when it is empty.
func (d *Device) popFree() *warp {
	w := d.free
	if w != nil {
		d.free = w.ctx.w
	}
	return w
}

// startWarp runs w as warp i of tb.
func (d *Device) startWarp(w *warp, tb *threadBlock, i int) {
	spec := &tb.kernel.Spec
	w.ctx = Ctx{
		dev:         d,
		w:           w,
		tb:          tb,
		BlockIdx:    tb.blockIdx,
		BlockDim:    spec.BlockThreads,
		WarpInBlock: i,
	}
	w.phase = phaseStart
	if tb.spillDelay > 0 {
		w.phase = phaseSwapIn
	}
	d.Eng.Start(&w.proc, w)
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
		if k.Spec.GridDim > 1 && cap(k.tbs) > cap(d.spareTBs) {
			d.spareTBs, k.tbs = k.tbs, nil
		}
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
