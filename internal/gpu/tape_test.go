package gpu

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/prng"
	"repro/internal/sim"
)

// tapeOp is one cost op of a generated warp program; op is opCompute or a
// memory op, arg its cycles or bytes.
type tapeOp struct {
	op  uint8
	arg float64
}

// tapeProgram is a generated kernel: launch k starts at starts[k], and
// warp w of block b of launch k runs segs[k][b][w], one op list per
// segment, with a SyncBlock between segments.
type tapeProgram struct {
	starts []sim.Time
	warps  int
	segs   [][][][][]tapeOp
}

// genTapeProgram draws a program: zero, negative and (when nan, once) NaN
// Compute; 0-byte, negative and multi-transaction memory ops; blocks of
// 2-4 warps; and, when long, segments past the tape's capacity.
func genTapeProgram(rng *prng.Xorshift, long, nan bool) tapeProgram {
	maxOps := 12
	if long {
		maxOps = 3 * tapeCap
	}
	pr := tapeProgram{warps: 2 + rng.Intn(3)}
	for k := 0; k < 1+rng.Intn(2); k++ {
		pr.starts = append(pr.starts, sim.Time(rng.Intn(400))+0.5*float64(rng.Intn(2)))
		blocks := make([][][][]tapeOp, 1+rng.Intn(3))
		for b := range blocks {
			nseg := 1 + rng.Intn(3)
			blocks[b] = make([][][]tapeOp, pr.warps)
			for w := range blocks[b] {
				for s := 0; s < nseg; s++ {
					var ops []tapeOp
					for i, n := 0, rng.Intn(maxOps+1); i < n; i++ {
						ops = append(ops, genTapeOp(rng))
					}
					blocks[b][w] = append(blocks[b][w], ops)
				}
			}
		}
		pr.segs = append(pr.segs, blocks)
	}
	if nan {
		seg := &pr.segs[0][0][0][0]
		i := rng.Intn(len(*seg) + 1)
		*seg = append((*seg)[:i], append([]tapeOp{{opCompute, math.NaN()}}, (*seg)[i:]...)...)
	}
	return pr
}

func genTapeOp(rng *prng.Xorshift) tapeOp {
	op := uint8(rng.Intn(5))
	if op == opCompute {
		switch rng.Intn(8) {
		case 0:
			return tapeOp{op, 0}
		case 1:
			return tapeOp{op, -3.25}
		}
		return tapeOp{op, float64(1+rng.Intn(40)) + rng.Float01()}
	}
	switch rng.Intn(6) {
	case 0:
		return tapeOp{op, 0}
	case 1:
		return tapeOp{op, -64}
	case 2:
		return tapeOp{op, float64(1 + rng.Intn(100))} // one transaction
	}
	return tapeOp{op, float64(128 * (1 + rng.Intn(64)))} // up to 64 transactions
}

// tapesInUse counts the tapes the slab has handed out and not had back,
// reading its fields, which no engine may be changing: the package's tests
// run one at a time.
func tapesInUse() int {
	s := reflect.ValueOf(&tapes).Elem()
	return int(s.FieldByName("made").Uint()) - s.FieldByName("free").Len()
}

// tapeRunResult is what one run of a program is compared on.
type tapeRunResult struct {
	done      [][][]sim.Time // per launch, block, warp: the warp's end
	issue     []float64      // each SMM's issue-share busy integral
	membw     float64
	stats     sim.Stats
	tapesUsed int
	panicked  any
}

// runTapeProgram runs pr with every warp charging its ops through a Task
// (taped) or through the Ctx ops one at a time.
func runTapeProgram(pr tapeProgram, taped bool) tapeRunResult {
	eng := sim.New()
	dev := NewDevice(eng, testCfg())
	var res tapeRunResult
	for k, start := range pr.starts {
		blocks := pr.segs[k]
		done := make([][]sim.Time, len(blocks))
		for b := range done {
			done[b] = make([]sim.Time, pr.warps)
		}
		res.done = append(res.done, done)
		eng.Schedule(start, func() {
			dev.Launch(LaunchSpec{
				Name: "tape", GridDim: len(blocks), BlockThreads: 32 * pr.warps,
				Fn: func(c *Ctx) {
					var t Task
					t.Bind(c, len(blocks), c.BlockIdx)
					var w costOps = opByOp{c}
					if taped {
						w = &t
					}
					for s, ops := range blocks[c.BlockIdx][c.WarpInBlock] {
						if s > 0 {
							w.SyncBlock()
						}
						for _, o := range ops {
							chargeTapeOp(w, o)
						}
					}
					t.Drain()
					done[c.BlockIdx][c.WarpInBlock] = c.Now()
				},
			})
		})
	}
	func() {
		defer func() { res.panicked = recover() }()
		eng.Run()
	}()
	eng.Close()
	for _, m := range dev.SMMs {
		res.issue = append(res.issue, m.issue.Integrals())
	}
	res.membw = dev.membw.Integrals()
	res.stats = eng.Stats()
	res.tapesUsed = tapesInUse()
	return res
}

// costOps is what a Task and opByOp have in common: the cost ops and
// SyncBlock.
type costOps interface {
	Compute(cycles float64)
	GlobalRead(n int)
	GlobalWrite(n int)
	SharedRead(n int)
	SharedWrite(n int)
	SyncBlock()
}

// opByOp charges a warp's ops through its Ctx one at a time: the reference
// a taped Task must match.
type opByOp struct{ *Ctx }

func (o opByOp) SyncBlock() { syncThreads(o.Ctx) }

// syncThreads is __syncthreads() charged through the warp's Ctx: its
// non-blocking halves, each followed by the wait it arms.
func syncThreads(c *Ctx) {
	if c.SyncIssueThen() {
		c.Proc().Await()
	}
	if c.SyncArriveThen() {
		c.Proc().Await()
	}
}

func chargeTapeOp(c costOps, o tapeOp) {
	n := int(o.arg)
	switch o.op {
	case opCompute:
		c.Compute(o.arg)
	case opGlobalRead:
		c.GlobalRead(n)
	case opGlobalWrite:
		c.GlobalWrite(n)
	case opSharedRead:
		c.SharedRead(n)
	default:
		c.SharedWrite(n)
	}
}

// TestTapeMatchesOpByOp: random warp programs charged through a Task, whose
// ops are recorded and replayed a tape at a time, end every warp at the
// same instant, to the bit, as the same ops charged through the Ctx one at
// a time; the shares' busy integrals and the engine's event counts are the
// same too, and every resume the tapes save becomes a step. A run leaves
// every tape back in the slab. A program with a NaN Compute panics either
// way.
func TestTapeMatchesOpByOp(t *testing.T) {
	rng := prng.New(30)
	for trial := 0; trial < 60; trial++ {
		long, nan := trial%3 == 0, trial%10 == 9
		pr := genTapeProgram(rng, long, nan)
		used := tapesInUse()
		want := runTapeProgram(pr, false)
		got := runTapeProgram(pr, true)
		if got.panicked != want.panicked {
			t.Fatalf("trial %d: run panicked with %v taped, %v op by op", trial, got.panicked, want.panicked)
		}
		if nan {
			// A NaN Compute panics when it is recorded, which a taped warp
			// does before it charges the ops ahead of it.
			if want.panicked == nil {
				t.Fatalf("trial %d: a NaN Compute did not panic", trial)
			}
			continue
		}
		for k := range want.done {
			for b := range want.done[k] {
				for w, at := range want.done[k][b] {
					if g := got.done[k][b][w]; math.Float64bits(g) != math.Float64bits(at) {
						t.Fatalf("trial %d: launch %d tb%d w%d ends at %v taped, %v op by op", trial, k, b, w, g, at)
					}
				}
			}
		}
		for i := range want.issue {
			if math.Float64bits(got.issue[i]) != math.Float64bits(want.issue[i]) {
				t.Errorf("trial %d: SMM %d issue integral %v taped, %v op by op", trial, i, got.issue[i], want.issue[i])
			}
		}
		if math.Float64bits(got.membw) != math.Float64bits(want.membw) {
			t.Errorf("trial %d: membw integral %v taped, %v op by op", trial, got.membw, want.membw)
		}
		g, w := got.stats, want.stats
		if g.Events != w.Events || g.LaneEvents != w.LaneEvents || g.HeapPushes != w.HeapPushes || g.Rekeys != w.Rekeys {
			t.Errorf("trial %d: Stats %+v taped, %+v op by op", trial, g, w)
		}
		if g.Handoffs+g.SelfResumes+g.Steps != w.Handoffs+w.SelfResumes+w.Steps {
			t.Errorf("trial %d: resumes+steps %d taped, %d op by op", trial,
				g.Handoffs+g.SelfResumes+g.Steps, w.Handoffs+w.SelfResumes+w.Steps)
		}
		if got.tapesUsed != used || want.tapesUsed != used {
			t.Errorf("trial %d: %d tapes in use after the taped run, %d after the other, %d before", trial, got.tapesUsed, want.tapesUsed, used)
		}
	}
}

// TestCloseMidTapeReturnsTapes cuts a run of task warps whose tapes are
// mid-replay, some past a full tape's early drain, and closes the engine:
// every warp unwinds, and every tape goes back to the slab, so following
// runs reuse the tapes rather than making more.
func TestCloseMidTapeReturnsTapes(t *testing.T) {
	run := func() {
		eng := sim.New()
		dev := NewDevice(eng, testCfg())
		dev.Launch(LaunchSpec{
			Name: "tape", GridDim: 4, BlockThreads: 128,
			Fn: func(c *Ctx) {
				var task Task
				task.Bind(c, 4, c.BlockIdx)
				for i := 0; i < tapeCap+8; i++ {
					task.Compute(3)
					task.GlobalRead(1024)
				}
				task.SyncBlock()
				task.SharedWrite(256)
				task.Drain()
			},
		})
		eng.RunUntil(5000.5)
		if eng.LiveProcs() == 0 {
			t.Fatal("every warp finished before the cut; the check needs warps mid-tape")
		}
		eng.Close()
		if n := eng.LiveProcs(); n != 0 {
			t.Fatalf("%d procs live after Close", n)
		}
	}
	used := tapesInUse()
	for i := 0; i < 3; i++ {
		run()
		if got := tapesInUse(); got != used {
			t.Fatalf("run %d: %d tapes in use after Close, %d before", i, got, used)
		}
	}
}
