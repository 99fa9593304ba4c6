package gpu

import (
	"math"
	"testing"

	"repro/internal/prng"
	"repro/internal/sim"
)

// The ops of a generated stepped-warp program.
const (
	stepCompute uint8 = iota // Compute(arg)
	stepAtomic               // AtomicShared on the launch's one site
	stepBody                 // a task body: Compute(arg) and a read of arg*8 bytes, taped
)

// stepProgram is a generated launch sequence: launch k starts at starts[k],
// its blocks have threads threads and shared bytes of shared memory, and
// warp w of block b runs segs[k][b][w], one op list per segment, with a
// SyncBlock between segments.
type stepProgram struct {
	starts  []sim.Time
	threads int
	shared  int
	segs    [][][][][]tapeOp
}

// genStepProgram draws a program: zero, negative and fractional Compute,
// atomics contending on one site, task bodies, 1-4-warp blocks (a partial
// last warp included) and, with a large shared-memory request, grids wider
// than the device holds at once.
func genStepProgram(rng *prng.Xorshift) stepProgram {
	pr := stepProgram{threads: []int{32, 48, 64, 96, 128}[rng.Intn(5)]}
	if rng.Intn(2) == 0 {
		pr.shared = 40 << 10 // two blocks per SMM
	}
	warps := (pr.threads + 31) / 32
	for k := 0; k < 1+rng.Intn(2); k++ {
		pr.starts = append(pr.starts, sim.Time(rng.Intn(300))+0.5*float64(rng.Intn(2)))
		blocks := make([][][][]tapeOp, 1+rng.Intn(6))
		for b := range blocks {
			nseg := 1 + rng.Intn(3)
			blocks[b] = make([][][]tapeOp, warps)
			for w := range blocks[b] {
				for s := 0; s < nseg; s++ {
					var ops []tapeOp
					for i, n := 0, rng.Intn(7); i < n; i++ {
						ops = append(ops, genStepOp(rng))
					}
					blocks[b][w] = append(blocks[b][w], ops)
				}
			}
		}
		pr.segs = append(pr.segs, blocks)
	}
	return pr
}

func genStepOp(rng *prng.Xorshift) tapeOp {
	op := uint8(rng.Intn(3))
	switch rng.Intn(8) {
	case 0:
		return tapeOp{op, 0}
	case 1:
		return tapeOp{op, -2.5}
	}
	return tapeOp{op, float64(1+rng.Intn(60)) + rng.Float01()}
}

// stepWarp is a stepped warp's place in its program: the segment, the op,
// and the op's phase (an atomic's issue, entry and service; a barrier's
// issue and arrival).
type stepWarp struct {
	seg, op int
	phase   uint8
}

// stepRunResult is what one run of a program is compared on.
type stepRunResult struct {
	done  [][][]sim.Time // per launch, block, warp: the warp's end
	issue []float64
	membw float64
	// stats are the program's: a warm run's counts less the warm-up's,
	// whose peaks are in warm.
	stats, warm sim.Stats
	// At the deadline, inBody warps are running a task body and waiting
	// warps are not; unwound counts the bodies Close unwound, and live the
	// procs left after it.
	inBody, waiting, unwound int
	live                     int
	// recycled counts the program's warps that ran the warm-up first.
	recycled int
}

// runStepProgram runs pr until deadline, every warp stepped or blocking,
// then closes the engine. A warm run first runs, at instant 0, a launch of
// the first launch's shape whose warps end at once, so the program runs on
// its warps and threadblocks.
func runStepProgram(pr stepProgram, stepped, warm bool, deadline sim.Time) stepRunResult {
	eng := sim.New()
	dev := NewDevice(eng, testCfg())
	site := NewAtomicSite(dev.Cfg.AtomicSharedLatency)
	var res stepRunResult
	warmWarps, warps := make(map[*Ctx]bool), make(map[*Ctx]bool)
	if warm {
		spec := LaunchSpec{Name: "warm", GridDim: len(pr.segs[0]), BlockThreads: pr.threads, SharedPerTB: pr.shared}
		spec.Fn = func(c *Ctx) { warmWarps[c] = true }
		if stepped {
			spec.Resume = func(c *Ctx) bool {
				warmWarps[c] = true
				return false
			}
		}
		dev.Launch(spec)
		eng.Run()
		res.warm = eng.Stats()
	}
	for k, start := range pr.starts {
		blocks := pr.segs[k]
		done := make([][]sim.Time, len(blocks))
		pcs := make([][]stepWarp, len(blocks))
		for b := range done {
			done[b] = make([]sim.Time, len(blocks[b]))
			for w := range done[b] {
				done[b][w] = -1
			}
			pcs[b] = make([]stepWarp, len(blocks[b]))
		}
		res.done = append(res.done, done)
		body := func(c *Ctx, o tapeOp) {
			res.inBody++
			defer func() {
				res.inBody--
				if r := recover(); r != nil {
					if sim.Unwinding(r) {
						res.unwound++
					}
					panic(r)
				}
			}()
			var t Task
			t.Bind(c, len(blocks), c.BlockIdx, nil)
			t.Compute(o.arg)
			t.GlobalRead(int(o.arg) * 8)
			t.Drain()
		}
		spec := LaunchSpec{Name: "step", GridDim: len(blocks), BlockThreads: pr.threads, SharedPerTB: pr.shared}
		if stepped {
			spec.Resume = func(c *Ctx) bool {
				warps[c] = true
				return stepResume(c, site, blocks, pcs, done)
			}
			spec.Fn = func(c *Ctx) {
				pc := pcs[c.BlockIdx][c.WarpInBlock]
				body(c, blocks[c.BlockIdx][c.WarpInBlock][pc.seg][pc.op-1])
			}
		} else {
			spec.Fn = func(c *Ctx) {
				warps[c] = true
				var t Task
				t.Bind(c, len(blocks), c.BlockIdx, nil)
				for s, ops := range blocks[c.BlockIdx][c.WarpInBlock] {
					if s > 0 {
						t.SyncBlock()
					}
					for _, o := range ops {
						switch o.op {
						case stepCompute:
							c.Compute(o.arg)
						case stepAtomic:
							c.AtomicShared(site)
						default:
							body(c, o)
						}
					}
				}
				done[c.BlockIdx][c.WarpInBlock] = c.Now()
			}
		}
		eng.Schedule(start, func() { dev.Launch(spec) })
	}
	eng.RunUntil(deadline)
	for _, m := range dev.SMMs {
		res.issue = append(res.issue, m.issue.Integrals())
	}
	res.membw = dev.membw.Integrals()
	for c := range warps {
		if warmWarps[c] {
			res.recycled++
		}
	}
	res.stats = eng.Stats()
	for _, c := range []struct{ n, warm *int64 }{
		{&res.stats.Events, &res.warm.Events}, {&res.stats.Handoffs, &res.warm.Handoffs},
		{&res.stats.SelfResumes, &res.warm.SelfResumes}, {&res.stats.LaneEvents, &res.warm.LaneEvents},
		{&res.stats.HeapPushes, &res.warm.HeapPushes}, {&res.stats.Rekeys, &res.warm.Rekeys},
		{&res.stats.Steps, &res.warm.Steps},
	} {
		*c.n -= *c.warm
	}
	inBody := res.inBody
	res.waiting = eng.LiveProcs() - inBody
	eng.Close()
	res.inBody = inBody
	res.live = eng.LiveProcs()
	return res
}

// stepResume is a stepped warp's program, run from where it last waited.
func stepResume(c *Ctx, site *AtomicSite, blocks [][][][]tapeOp, pcs [][]stepWarp, done [][]sim.Time) bool {
	pc := &pcs[c.BlockIdx][c.WarpInBlock]
	segs := blocks[c.BlockIdx][c.WarpInBlock]
	for {
		if pc.seg == len(segs) {
			done[c.BlockIdx][c.WarpInBlock] = c.Now()
			return false
		}
		ops := segs[pc.seg]
		if pc.op == len(ops) {
			if pc.seg == len(segs)-1 {
				pc.seg++
				continue
			}
			if pc.phase == 0 {
				pc.phase = 1
				if c.SyncIssueThen() {
					return false
				}
				continue
			}
			pc.seg, pc.op, pc.phase = pc.seg+1, 0, 0
			if c.SyncArriveThen() {
				return false
			}
			continue
		}
		o := ops[pc.op]
		switch {
		case o.op == stepCompute:
			pc.op++
			if c.ComputeThen(o.arg) {
				return false
			}
		case o.op == stepBody:
			pc.op++
			return true
		case pc.phase == 0:
			pc.phase = 1
			if c.ComputeThen(1) {
				return false
			}
		case pc.phase == 1:
			if site.Enter(c.Proc()) {
				pc.phase = 2
			}
			return false
		default:
			site.Leave()
			pc.op++
			pc.phase = 0
		}
	}
}

// TestSteppedMatchesBlockingWarps: random warp programs run as a stepped
// launch, whose warps charge their ops on the event loop and borrow a
// coroutine only for task bodies, end every warp at the same instant, to
// the bit, as the same programs run as blocking Fns; the shares' busy
// integrals and the engine's event counts are the same too, every resume
// saved becomes a step, and no proc outlives the run. Both kinds run each
// program on a fresh device and on a warm one, whose warps are recycled,
// with the same result.
func TestSteppedMatchesBlockingWarps(t *testing.T) {
	rng := prng.New(31)
	for trial := 0; trial < 80; trial++ {
		pr := genStepProgram(rng)
		want := runStepProgram(pr, false, false, sim.Infinity)
		for _, run := range []struct {
			name          string
			stepped, warm bool
		}{{"stepped", true, false}, {"warm blocking", false, true}, {"warm stepped", true, true}} {
			got := runStepProgram(pr, run.stepped, run.warm, sim.Infinity)
			if run.warm && got.recycled == 0 {
				t.Fatalf("trial %d: the %s run reused none of the warm-up's warps", trial, run.name)
			}
			for k := range want.done {
				for b := range want.done[k] {
					for w, at := range want.done[k][b] {
						if g := got.done[k][b][w]; math.Float64bits(g) != math.Float64bits(at) || at < 0 {
							t.Fatalf("trial %d: launch %d tb%d w%d ends at %v %s, %v blocking", trial, k, b, w, g, run.name, at)
						}
					}
				}
			}
			for i := range want.issue {
				if math.Float64bits(got.issue[i]) != math.Float64bits(want.issue[i]) {
					t.Errorf("trial %d: SMM %d issue integral %v %s, %v blocking", trial, i, got.issue[i], run.name, want.issue[i])
				}
			}
			if math.Float64bits(got.membw) != math.Float64bits(want.membw) {
				t.Errorf("trial %d: membw integral %v %s, %v blocking", trial, got.membw, run.name, want.membw)
			}
			g, w := got.stats, want.stats
			if g.Events != w.Events || g.LaneEvents != w.LaneEvents || g.HeapPushes != w.HeapPushes ||
				g.Rekeys != w.Rekeys || g.PeakPending != max(w.PeakPending, got.warm.PeakPending) {
				t.Errorf("trial %d: Stats %+v %s, %+v blocking", trial, g, run.name, w)
			}
			if g.Handoffs+g.SelfResumes+g.Steps != w.Handoffs+w.SelfResumes+w.Steps {
				t.Errorf("trial %d: resumes+steps %d %s, %d blocking", trial,
					g.Handoffs+g.SelfResumes+g.Steps, run.name, w.Handoffs+w.SelfResumes+w.Steps)
			}
			if !run.stepped && (g.Handoffs != w.Handoffs || g.PeakRunning != max(w.PeakRunning, got.warm.PeakRunning)) {
				t.Errorf("trial %d: Stats %+v %s, %+v blocking", trial, g, run.name, w)
			}
			if g.PeakRunning > max(w.PeakRunning, got.warm.PeakRunning) {
				t.Errorf("trial %d: PeakRunning %d %s, %d blocking", trial, g.PeakRunning, run.name, w.PeakRunning)
			}
			if got.live != 0 || want.live != 0 {
				t.Errorf("trial %d: %d procs live after the %s run, %d after the blocking one", trial, got.live, run.name, want.live)
			}
		}
	}
}

// TestCloseMidSteppedLaunch cuts stepped launches mid-run, with warps
// waiting outside a task body, holding no coroutine, and warps inside a
// body on a borrowed one: Close finishes the first kind, unwinds every
// body and leaves no proc live.
func TestCloseMidSteppedLaunch(t *testing.T) {
	rng := prng.New(32)
	cuts, withBoth := 0, 0
	for trial := 0; trial < 40; trial++ {
		pr := genStepProgram(rng)
		full := runStepProgram(pr, true, false, sim.Infinity)
		var end sim.Time
		for _, launch := range full.done {
			for _, block := range launch {
				for _, at := range block {
					end = max(end, at)
				}
			}
		}
		for _, frac := range []float64{0.25, 0.5, 0.75} {
			res := runStepProgram(pr, true, false, end*frac)
			cuts++
			if res.live != 0 {
				t.Fatalf("trial %d: %d procs live after Close at %v of %v", trial, res.live, end*frac, end)
			}
			if res.unwound != res.inBody {
				t.Fatalf("trial %d: %d bodies unwound of %d running at the cut", trial, res.unwound, res.inBody)
			}
			if res.inBody > 0 && res.waiting > 0 {
				withBoth++
			}
		}
	}
	if withBoth == 0 {
		t.Fatalf("none of %d cuts caught warps both inside and outside a task body", cuts)
	}
}
