package runners

import (
	"fmt"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/pcie"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// ClusterOpenLoop generalizes OpenLoop over a fleet: N identical devices
// (each with its own PCIe bus and scheme instance) share one engine and one
// virtual clock, a front-end dispatcher consumes the arrival stream, and a
// cluster.Policy routes each task to a node. Per-node admission has the
// serve admission policies' Admit shape and is consulted at the scheme's
// presentation point — the spawn point for Pagoda/HyperQ/zorua, arrival for
// GeMTC. The single-device open loop is the one-node round-robin case
// (Scheme.RunOpenLoop).
type ClusterOpenLoop struct {
	// Arrivals holds one nondecreasing virtual-cycle instant per task.
	Arrivals []sim.Time

	// Classes optionally assigns each task a workload class for
	// class-affine dispatch; nil means a single class.
	Classes []int

	// Nodes is the fleet size; 0 means 1.
	Nodes int

	// Policy routes arrivals; nil means round-robin. Policies are stateful —
	// hand each run a freshly constructed one.
	Policy cluster.Policy

	// Admit builds one fresh admission policy per node (a serve policy's Admit
	// satisfies the returned signature); nil admits everything. Fresh-per-
	// node matters for stateful policies like the token bucket.
	Admit func() func(now sim.Time, inFlight int) bool

	// AdmitTask, when non-nil, takes precedence over Admit on every node:
	// one fleet-wide class-aware admission layer (internal/tenancy) shared
	// by all nodes, so per-class contracts and token buckets police the
	// fleet's aggregate intake rather than N independent copies. Nodes call
	// it exactly once per task at their own presentation point with
	// node-local inFlight, exactly where they would consult Admit. Under
	// Pagoda's multi-spawner host path calls are NOT guaranteed to arrive in
	// task-index order, only at nondecreasing per-spawner instants —
	// implementations must key on the index argument, never on call order.
	AdmitTask func(ti int, now sim.Time, inFlight int) bool

	// Scaler, when it asks for elasticity (Max > Min), replaces the fixed
	// Nodes fleet with an autoscale.Fleet: nodes warm up, drain and retire
	// under the configured scaling policy and the run reports an
	// autoscale.Outcome in ClusterRun.Scale. A disabled scaler (nil, or
	// Min == Max) normalizes to the fixed fleet — bit-identical, pinned by
	// test.
	Scaler *autoscale.Config

	// closedLoop makes each node stamp Submit at its own presentation point
	// instead of the arrival instant (see runClosedLoop).
	closedLoop bool
}

// normalize folds a disabled scaler into the fixed-fleet shape: Min == Max
// means a fleet that can never scale, which is exactly Nodes = Min on a
// static fleet — the delegation that makes "autoscaling off" reproduce
// fixed-fleet records bit for bit. It defaults Nodes to 1, and folds the two
// admission hooks into one factory that provisioning calls once per node:
// the fleet-wide AdmitTask when set, else a fresh Admit per node.
func (co ClusterOpenLoop) normalize() (ClusterOpenLoop, func() admitFunc) {
	if co.Scaler != nil && !co.Scaler.Enabled() {
		co.Nodes = co.Scaler.Min
		co.Scaler = nil
	}
	if co.Nodes <= 0 {
		co.Nodes = 1
	}
	shared, perNode := co.AdmitTask, co.Admit
	return co, func() admitFunc {
		if shared != nil || perNode == nil {
			return shared
		}
		admit := perNode()
		if admit == nil {
			return nil
		}
		return func(_ int, now sim.Time, inFlight int) bool { return admit(now, inFlight) }
	}
}

// ClusterRun is the fleet-level outcome alongside the aggregate Result: the
// exact per-task records, each task's node assignment, and the per-node
// accounting the conservation invariant is checked against.
type ClusterRun struct {
	Recs   []serve.Record
	NodeOf []int              // node index per task
	Views  []cluster.NodeView // final per-node counters
	Names  []string           // per-node track/display names

	// Scale is the autoscaler's outcome — scale events, node lifecycle
	// spans and the node-seconds cost ledger. Nil for fixed-fleet runs.
	Scale *autoscale.Outcome

	// Engine is the shared engine's work: events fired and proc resumes.
	Engine sim.Stats //pagoda:allow unused TestEngineStatsPinned's window on the fleet engine's event counts
}

// CheckConservation verifies submitted = done + dropped per node and
// fleet-wide. Harness cells panic on an error so a leaking fleet can never
// publish numbers.
func (cr ClusterRun) CheckConservation() error {
	return cluster.CheckConservation(cr.Views, len(cr.Recs))
}

// AddServeSpans exports each completed task's wait (Submit→Start) and service
// (Start→Done) spans, named by task index, on track(ti) — by default its
// node's track, Names[NodeOf[ti]]. Spans go in node by node, in task order
// within a node: Tracer.Spans sorts unstably by start, so insertion order
// decides ties and is part of the exported bytes.
func (cr ClusterRun) AddServeSpans(tr *trace.Tracer, track func(ti int) string) {
	if !tr.Enabled() {
		return
	}
	if track == nil {
		track = func(ti int) string { return cr.Names[cr.NodeOf[ti]] }
	}
	for node := range cr.Names {
		for ti, r := range cr.Recs {
			if cr.NodeOf[ti] != node || r.Dropped {
				continue
			}
			tk := track(ti)
			tr.Add(trace.Span{Name: trace.SpanName("wait", int64(ti)), Cat: "wait",
				Track: tk, Start: r.Submit, End: r.Start})
			tr.Add(trace.Span{Name: trace.SpanName("service", int64(ti)), Cat: "service",
				Track: tk, Start: r.Start, End: r.Done})
		}
	}
}

// recordsResult assembles a run's timing aggregates from its per-task
// records: elapsed plus serve.Summarize's exact latency statistics over the
// completed records, which also panics on a record stamped out of order.
func recordsResult(end sim.Time, recs []serve.Record) Result {
	st := serve.Summarize(recs, 0)
	return Result{Elapsed: end, Tasks: st.Completed, AvgLatency: st.Mean, MaxLatency: st.Max,
		P50Latency: st.P50, P90Latency: st.P90, P99Latency: st.P99}
}

// fleetNode is the contract a scheme-backed node offers the fleet runner
// beyond cluster.Node: its device metrics at the run's end.
type fleetNode interface {
	cluster.Node
	devMetrics(end sim.Time) (occupancy, issueUtil float64)
}

// nodeFactory builds one scheme-backed node on the fleet's shared engine,
// spawning its engine processes. b carries the node's name, inputs and
// admission hooks; the node embeds it.
type nodeFactory func(eng *sim.Engine, b nodeBase) fleetNode

// runClosedLoop runs a pre-built batch — the closed loop of Figs. 5-11 — as
// a one-node round-robin fleet that receives every task at t0. Each node
// stamps Submit where the host presents the task to the device (Pagoda: its
// taskSpawn; GeMTC: its batch's SuperKernel launch), so a record's latency
// is the closed loop's spawn-to-completion latency. Kernel-per-task schemes
// keep their own closed loop (runKernelPerTask).
func runClosedLoop(tasks []workloads.TaskDef, cfg Config, scheme string, newNode nodeFactory) Result {
	co := ClusterOpenLoop{Arrivals: make([]sim.Time, len(tasks)), closedLoop: true}
	res, _ := runFleet(tasks, co, cfg, scheme, newNode)
	return res
}

// runFleet is the one timed-arrival engine behind every scheme: fixed
// fleets, elastic fleets and (as one node) the single-device open loop and
// the Pagoda/GeMTC closed loop. A
// cluster.Dispatcher routes each arrival over a cluster.Fleet — a
// StaticFleet of co.Nodes nodes, or, when co.Scaler asks for elasticity, an
// autoscale.Fleet that builds nodes on demand while a controller process
// steps the lifecycle (warm-up promotion, drain retirement, scale decisions)
// at the scaler's interval. Scale-out provisions a node whose engine
// processes spawn mid-run, and scale-in reuses Node.Close, so draining is
// the scheme's own drain path. Elapsed is the instant the engine ran dry:
// the last node's drain.
func runFleet(tasks []workloads.TaskDef, co ClusterOpenLoop, cfg Config,
	scheme string, newNode nodeFactory) (Result, ClusterRun) {
	co, nodeAdmit := co.normalize()
	elastic := co.Scaler.Enabled()
	eng := sim.New()
	defer eng.Close()
	recs := make([]serve.Record, len(tasks))
	var nodes []fleetNode
	var scaler *autoscale.Fleet
	provision := func(id int) cluster.Node {
		b := nodeBase{name: fmt.Sprintf("node%02d", id), tasks: tasks, recs: recs, cfg: cfg,
			admit: nodeAdmit(), closedLoop: co.closedLoop}
		if elastic {
			// Completions feed the scaler's rolling-p99 signal; recs[ti] is
			// fully stamped before noteDone fires (the noteDone contract).
			b.onDone = func(ti int) { scaler.NoteLatency(recs[ti].Done - recs[ti].Submit) }
		}
		n := newNode(eng, b)
		nodes = append(nodes, n)
		return n
	}

	var fleet cluster.Fleet
	if elastic {
		var err error
		if scaler, err = autoscale.NewFleet(eng, *co.Scaler, provision); err != nil {
			panic(fmt.Sprintf("runners: %v", err))
		}
		eng.Spawn("autoscaler", func(p *sim.Proc) {
			for !scaler.Closed() {
				p.Sleep(scaler.Interval())
				scaler.Step(p.Now())
			}
		})
		fleet = scaler
	} else {
		static := make([]cluster.Node, co.Nodes)
		for i := range static {
			static[i] = provision(i)
		}
		fleet = cluster.StaticFleet(static)
	}
	nodeOf := make([]int, len(tasks))
	cluster.Dispatcher{Arrivals: co.Arrivals, Classes: co.Classes, Policy: co.Policy, Fleet: fleet}.
		Spawn(eng, recs, nodeOf)
	end := eng.Run()

	res := recordsResult(end, recs)
	cr := ClusterRun{Recs: recs, NodeOf: nodeOf, Engine: eng.Stats(),
		Views: make([]cluster.NodeView, len(nodes)), Names: make([]string, len(nodes))}
	var occ, iu float64
	for i, n := range nodes {
		cr.Views[i] = n.View()
		cr.Names[i] = n.Name() + "/serve-" + scheme
		o, u := n.devMetrics(end)
		occ += o
		iu += u
	}
	res.Occupancy = occ / float64(len(nodes))
	res.IssueUtil = iu / float64(len(nodes))
	if elastic {
		scaler.Finish(end)
		out := scaler.Outcome()
		cr.Scale = &out
	}
	return res, cr
}

// admitFunc is a node's admission hook: the task, the instant the node
// presents it, and the node's admitted-but-uncompleted count. False drops
// the task.
type admitFunc func(ti int, now sim.Time, inFlight int) bool

// intake is one host thread's inbox: routed task indices, oldest first, and
// the signal that wakes the thread when one arrives or the node closes.
type intake struct {
	tasks sim.FIFO[int]
	more  sim.Signal
}

// nodeBase carries the inputs, intake, accounting and admission state every
// backend shares. All fields are touched only under the engine baton.
type nodeBase struct {
	name       string
	tasks      []workloads.TaskDef
	recs       []serve.Record // fleet-wide, indexed by task
	cfg        Config
	view       cluster.NodeView
	in         []intake     // one per host thread, filled by the backend
	admit      admitFunc    // nil admits everything
	onDone     func(ti int) // completion hook (elastic fleets)
	closedLoop bool         // stamp Submit at presentation
	admitted   int
	completed  int
	closed     bool
}

func (n *nodeBase) Name() string           { return n.name }
func (n *nodeBase) View() cluster.NodeView { return n.view }

// Submit deals routed tasks to the host threads' intakes round-robin in
// routing order.
func (n *nodeBase) Submit(_ *sim.Proc, ti int) {
	f := n.view.Routed % len(n.in)
	n.view.Routed++
	n.push(f, ti)
}

func (n *nodeBase) push(f, ti int) {
	n.in[f].tasks.Push(ti)
	n.in[f].more.Broadcast()
}

// Close wakes every host thread to drain its intake and finish.
func (n *nodeBase) Close() {
	n.closed = true
	for f := range n.in {
		n.in[f].more.Broadcast()
	}
}

// await parks p until intake f holds a task or the node is closed; false
// means the intake is closed and drained.
func (n *nodeBase) await(p *sim.Proc, f int) bool {
	q := &n.in[f]
	for q.tasks.Len() == 0 && !n.closed {
		q.more.Wait(p)
	}
	return q.tasks.Len() > 0
}

// next pops intake f's oldest task, parking until there is one; false means
// the intake is closed and drained.
func (n *nodeBase) next(p *sim.Proc, f int) (int, bool) {
	if !n.await(p, f) {
		return 0, false
	}
	return n.in[f].tasks.Pop(), true
}

// admitOrDrop consults the admission hook for task ti at now: an admitted
// task joins the node's in-flight count, a rejected one is recorded dropped.
func (n *nodeBase) admitOrDrop(ti int, now sim.Time) bool {
	if n.admit != nil && !n.admit(ti, now, n.admitted-n.completed) {
		n.recs[ti].Dropped = true
		n.view.Dropped++
		return false
	}
	n.admitted++
	return true
}

// noteDone records one task completion in the ledger; the scheme backend
// must have stamped recs[ti].Done first, so the hook sees final records.
func (n *nodeBase) noteDone(ti int) {
	n.completed++
	n.view.Done++
	if n.onDone != nil {
		n.onDone(ti)
	}
}

// ---------------------------------------------------------------------------
// Pagoda backend

// pagodaNode is one Pagoda runtime behind the dispatcher. Its feeder procs
// are the host's spawner threads: tasks are dealt to feeders round-robin in
// routing order, each feeder spawns continuously through its own stream,
// and the last feeder to drain shuts the runtime down. Per-task Start is the
// instant the scheduler warp picked the task up and Done its device-side
// completion, observed through the runtime's OnTaskDone hook rather than
// host polling. In a closed loop Submit is the spawn instant, so a record's
// latency is the runtime's own spawn-to-completion latency.
type pagodaNode struct {
	nodeBase
	sys     *system
	rt      *core.Runtime
	streams []*cuda.Stream // one per feeder

	idxOf      map[core.TaskID]int
	outBytes   map[core.TaskID]int
	finished   int
	allSpawned bool
}

func newPagodaNode(eng *sim.Engine, b nodeBase) fleetNode {
	n := &pagodaNode{
		nodeBase: b,
		sys:      newSystemOn(eng, b.cfg),
		idxOf:    map[core.TaskID]int{},
		outBytes: map[core.TaskID]int{},
	}
	ccfg := core.DefaultConfig()
	if n.cfg.PagodaBatching {
		ccfg.Batching = true
		if n.cfg.GeMTCBatch > 0 {
			ccfg.BatchSize = n.cfg.GeMTCBatch // "same batch size as GeMTC's"
		}
	}
	n.rt = core.NewRuntime(n.sys.ctx, ccfg)
	n.rt.OnTaskDone = func(id core.TaskID, spawn, sched, end sim.Time) {
		ti, ok := n.idxOf[id]
		if !ok {
			return
		}
		delete(n.idxOf, id)
		if n.closedLoop {
			n.recs[ti].Submit = spawn
		}
		n.recs[ti].Start = sched
		n.recs[ti].Done = end
		n.noteDone(ti)
	}

	// Output copies chain off host-observed completions: when a copy-back
	// reveals a finished task, its D2H output transfer goes on the wire,
	// overlapping with ongoing compute. A collector polls the TaskTable so
	// completions are observed while compute is still in flight — the
	// Fig. 1a pattern of a nested wait()+memcpy task per spawned task.
	if n.cfg.CopyData {
		n.rt.OnHostObservedDone = func(id core.TaskID) {
			if out := n.outBytes[id]; out > 0 {
				delete(n.outBytes, id)
				n.sys.bus.TransferAsync(pcie.DeviceToHost, out, nil)
			}
		}
		eng.Spawn(n.name+"-collector", func(p *sim.Proc) {
			for {
				p.Sleep(64_000) // 64 us polling cadence
				if n.allSpawned && len(n.outBytes) == 0 {
					return
				}
				n.rt.PollCompletions(p)
			}
		})
	}

	n.in = make([]intake, spawners)
	n.streams = make([]*cuda.Stream, spawners)
	for f := 0; f < spawners; f++ {
		f := f
		n.streams[f] = n.sys.ctx.NewStream()
		eng.Spawn(fmt.Sprintf("%s-feeder%d", n.name, f), func(p *sim.Proc) { n.feed(p, f) })
	}
	return n
}

func (n *pagodaNode) feed(p *sim.Proc, f int) {
	for {
		ti, ok := n.next(p, f)
		if !ok {
			break
		}
		if !n.admitOrDrop(ti, p.Now()) {
			continue
		}
		n.view.Started++
		td := &n.tasks[ti]
		if n.cfg.CopyData && td.InBytes > 0 {
			n.streams[f].MemcpyH2DPipelined(p, td.InBytes, nil)
		}
		id := n.rt.TaskSpawn(p, core.TaskSpec{
			Threads:   td.Threads,
			Blocks:    td.Blocks,
			SharedMem: td.SharedMem,
			Sync:      td.Sync,
			ArgBytes:  td.ArgBytes,
			Kernel:    func(tc *core.TaskCtx) { td.Kernel(tc) },
		})
		n.idxOf[id] = ti
		if n.cfg.CopyData && td.OutBytes > 0 {
			n.outBytes[id] = td.OutBytes
		}
	}
	n.finished++
	if n.finished < len(n.in) {
		return
	}
	// The last feeder to finish drains the node.
	n.allSpawned = true
	n.rt.WaitAll(p)
	for _, st := range n.streams {
		st.Sync(p)
	}
	n.rt.Shutdown(p)
}

func (n *pagodaNode) devMetrics(end sim.Time) (float64, float64) {
	return n.rt.TaskWarpOccupancy(end), n.sys.dev.Metrics().IssueUtil
}

// ---------------------------------------------------------------------------
// Kernel-per-task backend (HyperQ, zorua)

// hyperqNode is one 32-stream kernel-per-task device behind the dispatcher.
// Its single host proc launches tasks in routing order, each on the stream
// picked by its node-local sequence number (dropped tasks still consume a
// sequence slot). Start is the instant the kernel's threadblocks become
// dispatchable (stream reached it, HyperQ connection held, launch overhead
// paid); Done is the end of the task's output copy — the stream-FIFO point
// where the host could consume the result.
type hyperqNode struct {
	nodeBase
	sys     *system
	streams []*cuda.Stream
	seq     int // node-local arrival sequence, advanced per pop
	doneSig sim.Signal
}

const hyperqNodeStreams = 32

func newHyperQNode(eng *sim.Engine, b nodeBase) fleetNode {
	return newKernelPerTaskNode(eng, b, 1)
}

// newKernelPerTaskNode builds one kernel-per-task node: a static device for
// HyperQ (factor 1), one virtualized by oversub > 1 for zorua.
func newKernelPerTaskNode(eng *sim.Engine, b nodeBase, oversub float64) *hyperqNode {
	n := &hyperqNode{
		nodeBase: b,
		sys:      newSystemOn(eng, b.cfg),
		streams:  make([]*cuda.Stream, hyperqNodeStreams),
	}
	n.in = make([]intake, 1)
	if oversub > 1 {
		n.sys.dev.Virtualize(oversub)
	}
	for i := range n.streams {
		n.streams[i] = n.sys.ctx.NewStream()
	}
	eng.Spawn(n.name+"-host", n.host)
	return n
}

func (n *hyperqNode) finish(ti int) {
	n.recs[ti].Done = n.sys.eng.Now()
	n.noteDone(ti)
	n.doneSig.Broadcast()
}

func (n *hyperqNode) host(p *sim.Proc) {
	for {
		ti, ok := n.next(p, 0)
		if !ok {
			break
		}
		seq := n.seq
		n.seq++
		if !n.admitOrDrop(ti, p.Now()) {
			continue
		}
		n.view.Started++
		td := &n.tasks[ti]
		stream := n.streams[seq%hyperqNodeStreams]
		if n.cfg.CopyData && td.InBytes > 0 {
			stream.MemcpyH2D(p, td.InBytes)
		}
		h := stream.LaunchHooked(p, hyperqSpec(td), func() {
			n.recs[ti].Start = n.sys.eng.Now()
		})
		if n.cfg.CopyData && td.OutBytes > 0 {
			// The output copy sits right behind its kernel in the stream FIFO;
			// its delivery is the task's completion.
			stream.MemcpyD2H(p, td.OutBytes, func() { n.finish(ti) })
		} else {
			// No output copy: completion is the kernel's own end, observed by
			// a waiter process.
			n.sys.eng.Spawn(fmt.Sprintf("%s-wait%d", n.name, ti), func(wp *sim.Proc) {
				h.Wait(wp)
				n.finish(ti)
			})
		}
	}
	for n.completed < n.admitted {
		n.doneSig.Wait(p)
	}
	for _, st := range n.streams {
		st.Sync(p)
	}
}

func (n *hyperqNode) devMetrics(sim.Time) (float64, float64) {
	m := n.sys.dev.Metrics()
	return m.AvgOccupancy, m.IssueUtil
}

// ---------------------------------------------------------------------------
// GeMTC backend

// gemtcNode reproduces the GeMTC baseline (Krieder et al., HPDC'14): a
// SuperKernel whose threadblocks act as workers, pulling tasks from a single
// FIFO queue in device memory with global atomics, launched batch by batch.
// The three properties the paper contrasts with are modelled directly:
//
//  1. batch-based launching — no new tasks enter until the whole previous
//     batch (SuperKernel launch) completes, so a batch's makespan is its
//     longest task;
//  2. a single queue — every pop serializes on one global atomic;
//  3. threadblock granularity — each task occupies one worker threadblock
//     for its whole duration, and the SuperKernel's fixed threadblock size
//     limits occupancy.
//
// GeMTC has no shared-memory support ("the GeMTC versions do not use shared
// memory"), so tasks run with HasShared()==false regardless of their spec.
//
// Behind the dispatcher, admission is consulted at the arrival instant,
// admitted tasks join the node's host-side FIFO, and a dispatch proc
// launches a SuperKernel over the queue's current contents (up to the batch
// cap) whenever the device is free. A task's Start is its batch's launch and
// its Done the whole batch's end — a task is only available to the host when
// the whole batch is — so under sparse traffic a task pays the batch
// round-trip alone and under bursts it waits for stragglers, the latency
// property Fig. 10 contrasts with. In a closed loop Submit is the launch
// too, so a record's latency is its batch's round trip.
type gemtcNode struct {
	nodeBase
	sys *system
}

func newGeMTCNode(eng *sim.Engine, b nodeBase) fleetNode {
	n := &gemtcNode{nodeBase: b, sys: newSystemOn(eng, b.cfg)}
	n.in = make([]intake, 1)
	eng.Spawn(n.name+"-dispatch", n.dispatch)
	return n
}

// Submit admits at the arrival instant; only admitted tasks join the intake.
func (n *gemtcNode) Submit(p *sim.Proc, ti int) {
	n.view.Routed++
	if n.admitOrDrop(ti, p.Now()) {
		n.push(0, ti)
	}
}

func (n *gemtcNode) dispatch(p *sim.Proc) {
	batchCap := n.cfg.GeMTCBatch
	if batchCap <= 0 {
		batchCap = 1536
	}
	// Worker threadblock width: the evaluation uses the task's thread count
	// (uniform within a benchmark run; for mixes, the maximum).
	workerThreads := 0
	for i := range n.tasks {
		if n.tasks[i].Threads > workerThreads {
			workerThreads = n.tasks[i].Threads
		}
	}
	if workerThreads == 0 {
		workerThreads = 128
	}
	// Worker count: fill the device at this threadblock size.
	occ := gpu.TheoreticalOccupancy(n.sys.dev.Cfg, gpu.LaunchSpec{
		BlockThreads: workerThreads, RegsPerThread: 32,
	})
	workers := occ.TBsPerSMM * n.sys.dev.Cfg.NumSMMs
	workerWarps := taskWarps(workerThreads)
	k := &superKernel{
		n:       n,
		site:    gpu.NewAtomicSite(n.sys.dev.Cfg.AtomicGlobalLatency),
		claimed: make([]int, workers),
		warps:   workerWarps,
		states:  make([]uint8, workers*workerWarps),
	}
	spec := gpu.LaunchSpec{
		Name:          "SuperKernel",
		GridDim:       workers,
		BlockThreads:  workerThreads,
		RegsPerThread: 32,
		Resume:        k.resume,
		Fn:            k.run,
	}

	stream := n.sys.ctx.NewStream()
	pending := &n.in[0].tasks
	for n.await(p, 0) {
		batch := append([]int(nil), pending.Items()[:min(pending.Len(), batchCap)]...)
		for range batch {
			pending.Pop()
		}
		n.view.Started += len(batch)
		launchStart := n.sys.eng.Now()

		desc := 64 * len(batch)
		in := 0
		for _, ti := range batch {
			if n.cfg.CopyData {
				in += n.tasks[ti].InBytes
			}
		}
		stream.MemcpyH2D(p, desc+in)

		k.batch, k.next = batch, 0
		clear(k.states)
		h := stream.Launch(p, spec)
		h.Wait(p)

		out := 0
		for _, ti := range batch {
			if n.cfg.CopyData {
				out += n.tasks[ti].OutBytes
			}
		}
		if out > 0 {
			stream.MemcpyD2H(p, out, nil)
			stream.Sync(p)
		}
		batchEnd := n.sys.eng.Now()
		for _, ti := range batch {
			if n.closedLoop {
				n.recs[ti].Submit = launchStart
			}
			n.recs[ti].Start = launchStart
			n.recs[ti].Done = batchEnd
			n.noteDone(ti)
		}
	}
}

func (n *gemtcNode) devMetrics(sim.Time) (float64, float64) {
	m := n.sys.dev.Metrics()
	return m.AvgOccupancy, m.IssueUtil
}

// superKernel is the state a GeMTC node's SuperKernel launches share: the
// batch, its single FIFO queue (the head next and the head's atomic site),
// each worker's claimed batch position, and per worker warp its place in the
// worker loop.
type superKernel struct {
	n       *gemtcNode
	batch   []int
	next    int
	site    *gpu.AtomicSite
	claimed []int
	warps   int // per worker
	states  []uint8
}

// A worker warp's place in its loop (superKernel.resume): each is a point
// at which the warp waits.
const (
	gemtcPop        uint8 = iota // the top: warp 0 pops the queue, the rest go to the barrier
	gemtcEnter                   // warp 0 takes the queue head's atomic site
	gemtcClaim                   // warp 0 holds the site for its service time, then claims
	gemtcSync                    // the barrier after the pop: its issue
	gemtcArrive                  // and its arrival
	gemtcClaimed                 // past it: run the claimed task, or end on an empty queue
	gemtcTaskSync                // the barrier after the task: its issue
	gemtcTaskArrive              // and its arrival, then back to the top
)

// resume runs a worker warp's loop on the event loop, from where it last
// waited: warp 0 pops the queue with one global atomic, the worker's block
// crosses its barrier, and a claimed task runs (run, on a borrowed
// coroutine) before the block crosses the barrier again and loops. A warp
// whose worker found the queue empty ends.
func (k *superKernel) resume(c *gpu.Ctx) bool {
	st := &k.states[c.BlockIdx*k.warps+c.WarpInBlock]
	for {
		switch *st {
		case gemtcPop:
			if c.WarpInBlock != 0 {
				*st = gemtcSync
				continue
			}
			*st = gemtcEnter
			if c.ComputeThen(1) {
				return false
			}
		case gemtcEnter:
			if k.site.Enter(c.Proc()) {
				*st = gemtcClaim
			}
			return false
		case gemtcClaim:
			k.site.Leave()
			k.claimed[c.BlockIdx] = -1
			if k.next < len(k.batch) {
				k.claimed[c.BlockIdx] = k.next
				k.next++
			}
			*st = gemtcSync
		case gemtcSync, gemtcTaskSync:
			*st++
			if c.SyncIssueThen() {
				return false
			}
		case gemtcArrive:
			*st = gemtcClaimed
			if c.SyncArriveThen() {
				return false
			}
		case gemtcClaimed:
			if k.claimed[c.BlockIdx] < 0 {
				return false
			}
			*st = gemtcTaskSync
			return true
		case gemtcTaskArrive:
			*st = gemtcPop
			if c.SyncArriveThen() {
				return false
			}
		}
	}
}

// run is the claimed task's kernel on a worker warp: GeMTC runs it as a
// one-block task on the worker's threadblock, without shared memory.
func (k *superKernel) run(c *gpu.Ctx) {
	t := c.Task()
	t.Bind(c, 1, 0)
	k.n.tasks[k.batch[k.claimed[c.BlockIdx]]].Kernel(t)
	t.Drain()
}
