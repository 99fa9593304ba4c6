package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// titanContext builds a full Titan X engine, device, bus and CUDA context,
// the stack a fleet node builds its runtime on.
func titanContext() *cuda.Context {
	eng := sim.New()
	dev := gpu.NewDevice(eng, gpu.TitanX())
	return cuda.NewContext(eng, dev, pcie.New(eng, pcie.Default()), cuda.DefaultConfig())
}

// allocated returns the heap bytes and objects that the function setup
// returns allocates: the least over runs, each on a fresh Titan X context
// that setup builds on outside the measured window, as allocations by
// other goroutines (the Go runtime's own, now and then) only add. A
// benchmark's timer runs inside the window only.
func allocated(b *testing.B, runs int, setup func(*cuda.Context) func()) (bytes, objects uint64) {
	bytes, objects = math.MaxUint64, math.MaxUint64
	for range runs {
		if b != nil {
			b.StopTimer()
		}
		ctx := titanContext()
		f := setup(ctx)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if b != nil {
			b.StartTimer()
		}
		f()
		if b != nil {
			b.StopTimer()
		}
		runtime.ReadMemStats(&after)
		ctx.Eng.Close()
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		objects = min(objects, after.Mallocs-before.Mallocs)
	}
	if b != nil {
		b.StartTimer()
	}
	return bytes, objects
}

// BenchmarkNewRuntime measures building a Titan X Pagoda runtime, the
// MasterKernel launch included: what each Pagoda node a fleet provisions
// pays before its first spawn. Its B/op and allocs/op are those of the
// leanest iteration (allocated), so they are exact counts.
func BenchmarkNewRuntime(b *testing.B) {
	b.ReportAllocs()
	bytes, objects := allocated(b, b.N, func(ctx *cuda.Context) func() {
		return func() { NewRuntime(ctx, DefaultConfig()) }
	})
	b.ReportMetric(float64(bytes), "B/op")
	b.ReportMetric(float64(objects), "allocs/op")
}

// TestNewRuntimeAllocationsPinned pins what a Titan X Pagoda node
// allocates: its runtime before the first spawn, with no TaskTable row,
// then with the row its first 48 spawns take (one entry per MTB column)
// and the second row the 49th reaches. Each row is one block of 48
// tableEntry values (6,784 B with its size class) plus the growth of the
// row index. The spawns here are the table's part of TaskSpawn:
// claiming a free entry and marking its copy in flight.
func TestNewRuntimeAllocationsPinned(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	for _, tc := range []struct {
		spawns, rows   int
		bytes, objects uint64
	}{
		{spawns: 0, rows: 0, bytes: 88_768, objects: 35},
		{spawns: 48, rows: 1, bytes: 88_768 + 6_784 + 24, objects: 37},
		{spawns: 49, rows: 2, bytes: 88_768 + 2*6_784 + 24 + 48, objects: 39},
	} {
		var rows int
		bytes, objects := allocated(nil, 5, func(ctx *cuda.Context) func() {
			return func() {
				rt := NewRuntime(ctx, DefaultConfig())
				for range tc.spawns {
					rt.slot(rt.findFreeEntry(nil)).host.h2dInFlight = true
				}
				rows = len(rt.rows)
			}
		})
		if rows != tc.rows || bytes != tc.bytes || objects != tc.objects {
			t.Errorf("after %d spawns: %d rows, %d B in %d allocations; want %d rows, %d B in %d",
				tc.spawns, rows, bytes, objects, tc.rows, tc.bytes, tc.objects)
		}
	}
}

// TestTableEntrySizes pins the TaskTable entry, its row block's element,
// and the WarpTable slot: a Titan X row is 48 tableEntry values and an
// MTB's WarpTable 31 slots, so bytes here are paid per row and per warp.
// A Titan X row's 6,528 B, plus the 8 B header of a large object with
// pointers, take the 6,784-byte size class; 144 B entries would take 8,192.
func TestTableEntrySizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	for _, tc := range []struct {
		name      string
		got, want uintptr
	}{
		{"deviceEntry", unsafe.Sizeof(deviceEntry{}), 112},
		{"hostEntry", unsafe.Sizeof(hostEntry{}), 24},
		{"tableEntry", unsafe.Sizeof(tableEntry{}), 136},
		{"warpSlot", unsafe.Sizeof(warpSlot{}), 32},
	} {
		if tc.got != tc.want {
			t.Errorf("sizeof(%s) = %d, want %d", tc.name, tc.got, tc.want)
		}
	}
}

// checkRowPrefix checks the row invariant at one instant: until the spawn
// scan first wraps, the entries ever claimed (a TaskID issued) are exactly
// the row-major prefix before the cursor, and the rows made are exactly
// those the prefix touches; after the wrap every row is made.
func checkRowPrefix(t *testing.T, rt *Runtime, wrapped bool) {
	t.Helper()
	cols := len(rt.mtbs)
	claimed := 0
	for s := 0; s < len(rt.rows)*cols; s++ {
		if rt.rows[s/cols][s%cols].host.id != 0 {
			if claimed != s {
				t.Fatalf("entry %d was claimed but entry %d never was", s, claimed)
			}
			claimed++
		}
	}
	switch {
	case wrapped && len(rt.rows) != rt.Cfg.Rows:
		t.Fatalf("scan wrapped with %d of %d rows made", len(rt.rows), rt.Cfg.Rows)
	case !wrapped && claimed != rt.rrCursor:
		t.Fatalf("%d entries claimed, cursor at %d", claimed, rt.rrCursor)
	case !wrapped && len(rt.rows) != (claimed+cols-1)/cols:
		t.Fatalf("%d rows made for %d claimed entries of %d columns", len(rt.rows), claimed, cols)
	}
}

// TestTableRowsFormPrefix drives small runtimes (4 columns of 6 rows)
// with random spawn and completion traffic: tasks of random length,
// random waits on one task or all of them, and host pauses. After every
// spawn and wait the made rows are the prefix the spawn scan has reached.
func TestTableRowsFormPrefix(t *testing.T) {
	wraps := 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng, rt := testSystemCfg(t, 2, func(c *Config) { c.Rows = 6 })
		t.Cleanup(eng.Close)
		wrapped := false
		var ids []TaskID
		runHost(t, eng, rt, func(p *sim.Proc) {
			for range 8 + rng.Intn(60) {
				before := rt.rrCursor
				work := float64(200 + rng.Intn(40_000))
				ids = append(ids, rt.TaskSpawn(p, TaskSpec{Threads: 32 * (1 + rng.Intn(4)), Blocks: 1 + rng.Intn(2),
					Kernel: func(tc *TaskCtx) { tc.Compute(work) }}))
				wrapped = wrapped || rt.rrCursor <= before
				checkRowPrefix(t, rt, wrapped)
				switch rng.Intn(8) {
				case 0:
					rt.WaitAll(p)
				case 1:
					rt.Wait(p, ids[rng.Intn(len(ids))])
				case 2:
					p.Sleep(sim.Time(rng.Intn(50_000)))
				}
				checkRowPrefix(t, rt, wrapped)
			}
			rt.WaitAll(p)
		})
		if got := rt.Stats().Completed; got != len(ids) {
			t.Fatalf("seed %d: %d of %d tasks completed", seed, got, len(ids))
		}
		if wrapped {
			wraps++
		}
	}
	if wraps == 0 || wraps == 8 {
		t.Fatalf("the spawn scan wrapped in %d of 8 runs; the traffic should cover both", wraps)
	}
}

// TestPartialTableAnswersAsFull runs one host program twice, on the rows
// spawns make and on a table whose every row is made before the first
// spawn: anyFree, Check, Wait, WaitAll and flushLast answer alike at the
// same instants, and the runs end alike, event for event.
func TestPartialTableAnswersAsFull(t *testing.T) {
	run := func(full bool) (log []any, stats sim.Stats) {
		eng, rt := testSystem(t, 2)
		t.Cleanup(eng.Close)
		if full {
			for len(rt.rows) < rt.Cfg.Rows {
				rt.rows = append(rt.rows, make([]tableEntry, len(rt.mtbs)))
			}
		}
		note := func(p *sim.Proc, what string, v any) { log = append(log, what, p.Now(), v) }
		runHost(t, eng, rt, func(p *sim.Proc) {
			note(p, "anyFree", rt.anyFree())
			var ids []TaskID
			for i := range 6 { // six spawns over four columns: two rows
				ids = append(ids, rt.TaskSpawn(p, TaskSpec{Threads: 64, Blocks: 1,
					Kernel: func(tc *TaskCtx) { tc.Compute(float64(2000 * (i + 1))) }}))
			}
			note(p, "anyFree", rt.anyFree())
			note(p, "check", rt.Check(p, ids[0]))
			rt.Wait(p, ids[2])
			note(p, "wait", rt.taskDone(ids[2]))
			rt.flushLast(p)
			note(p, "flushLast", [2]any{rt.lastFlushed, rt.CopyBacks})
			rt.WaitAll(p)
			note(p, "waitAll", rt.allIdle())
			note(p, "never spawned", rt.taskDone(taskIDFor(0, rt.totalEntries-1, rt.totalEntries)))
		})
		return log, eng.Stats()
	}
	partial, pstats := run(false)
	full, fstats := run(true)
	if len(partial) != len(full) {
		t.Fatalf("partial table logged %v, full %v", partial, full)
	}
	for i := range partial {
		if partial[i] != full[i] {
			t.Fatalf("partial table logged %v, full %v", partial, full)
		}
	}
	if pstats != fstats {
		t.Fatalf("engine stats %+v on the partial table, %+v on the full one", pstats, fstats)
	}
}
