package gpu

import (
	"testing"

	"repro/internal/sim"
)

// launchRun runs one kernel of grid blocks of threads threads on a 1-SMM
// device and returns its end instant.
func launchRun(grid, threads int, fn KernelFunc) sim.Time {
	eng := sim.New()
	defer eng.Close()
	cfg := TitanX()
	cfg.NumSMMs = 1
	dev := NewDevice(eng, cfg)
	dev.Launch(LaunchSpec{Name: "task", GridDim: grid, BlockThreads: threads, Fn: fn})
	return eng.Run()
}

// TestTaskGeometry: every way a scheme maps a task onto physical warps
// yields the task's own geometry and thread-in-block lane IDs.
func TestTaskGeometry(t *testing.T) {
	type view struct{ threads, blocks, block, warp, first, lanes int }
	for _, tc := range []struct {
		name          string
		grid, threads int // the physical launch
		bind          func(task *Task, c *Ctx)
		want          func(c *Ctx) view
	}{{
		name: "hyperq", grid: 2, threads: 64, // logical = physical
		bind: func(task *Task, c *Ctx) { task.Bind(c, 2, c.BlockIdx) },
		want: func(c *Ctx) view { return view{64, 2, c.BlockIdx, c.WarpInBlock, c.WarpInBlock * 32, 32} },
	}, {
		name: "fused", grid: 3, threads: 64, // a one-block task on physical block b
		bind: func(task *Task, c *Ctx) { task.Bind(c, 1, 0) },
		want: func(c *Ctx) view { return view{64, 1, 0, c.WarpInBlock, c.WarpInBlock * 32, 32} },
	}, {
		name: "pagoda", grid: 1, threads: 256, // warpID → (block, warp), 2 warps per block
		bind: func(task *Task, c *Ctx) { task.BindWarp(c, 64, 4, c.WarpInBlock, nil, nil) },
		want: func(c *Ctx) view {
			return view{64, 4, c.WarpInBlock / 2, c.WarpInBlock % 2, c.WarpInBlock % 2 * 32, 32}
		},
	}, {
		name: "partial", grid: 1, threads: 40, // 32 + 8 lanes
		bind: func(task *Task, c *Ctx) { task.Bind(c, 1, 0) },
		want: func(c *Ctx) view { return view{40, 1, 0, c.WarpInBlock, c.WarpInBlock * 32, 32 - 24*c.WarpInBlock} },
	}, {
		name: "pagoda-partial", grid: 1, threads: 128, // warpID 3 is the 8-lane tail of block 1
		bind: func(task *Task, c *Ctx) { task.BindWarp(c, 40, 2, c.WarpInBlock, nil, nil) },
		want: func(c *Ctx) view {
			w := c.WarpInBlock % 2
			return view{40, 2, c.WarpInBlock / 2, w, w * 32, 32 - 24*w}
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			warps := 0
			launchRun(tc.grid, tc.threads, func(c *Ctx) {
				warps++
				var task Task
				tc.bind(&task, c)
				got := view{task.Threads(), task.Blocks(), task.BlockIdx(), task.WarpInBlock(), -1, 0}
				task.ForEachLane(func(tid int) {
					if got.first < 0 {
						got.first = tid
					} else if tid != got.first+got.lanes {
						t.Errorf("lane IDs not consecutive: %d after %d lanes from %d", tid, got.lanes, got.first)
					}
					got.lanes++
				})
				if want := tc.want(c); got != want {
					t.Errorf("physical block %d warp %d: got %+v, want %+v", c.BlockIdx, c.WarpInBlock, got, want)
				}
			})
			if want := tc.grid * ((tc.threads + 31) / 32); warps != want {
				t.Fatalf("ran %d warps, want %d", warps, want)
			}
		})
	}
}

// TestTaskSyncBlockCost: a task's SyncBlock costs what the physical
// __syncthreads() does, on the block barrier or a named one, and is free for
// a one-warp block.
func TestTaskSyncBlockCost(t *testing.T) {
	// syncRun returns when each of two skewed warps leaves the barrier.
	syncRun := func(sync func(c *Ctx)) (left [2]sim.Time) {
		launchRun(1, 64, func(c *Ctx) {
			c.Compute(float64(100 * (1 + c.WarpInBlock)))
			sync(c)
			left[c.WarpInBlock] = c.Now()
		})
		return left
	}
	physical := syncRun(syncThreads)
	bound := syncRun(func(c *Ctx) {
		var task Task
		task.Bind(c, 1, 0)
		task.SyncBlock()
	})
	bar := new(Barrier)
	bar.Reset(2)
	named := syncRun(func(c *Ctx) {
		var task Task
		task.BindWarp(c, 64, 1, c.WarpInBlock, bar, nil)
		task.SyncBlock()
	})
	if physical[0] != physical[1] || bound != physical || named != physical {
		t.Fatalf("warps leave SyncBlock at %v (block barrier) and %v (named), want %v as __syncthreads()", bound, named, physical)
	}
	free := launchRun(1, 32, func(c *Ctx) {
		var task Task
		task.BindWarp(c, 32, 1, 0, nil, nil)
		task.SyncBlock()
		c.Compute(10)
	})
	if want := launchRun(1, 32, func(c *Ctx) { c.Compute(10) }); free != want {
		t.Fatalf("one-warp SyncBlock took %v, want %v (free)", free, want)
	}
}

// TestTaskPanics: a multi-warp task without a barrier may not SyncBlock, and
// a task without shared memory may not ask for it.
func TestTaskPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(*Task)
	}{
		{"SyncBlock", (*Task).SyncBlock},
		{"Shared", func(task *Task) { task.Shared() }},
	} {
		panicked := false
		launchRun(1, 32, func(c *Ctx) {
			var task Task
			task.BindWarp(c, 64, 1, 0, nil, nil)
			defer func() { panicked = recover() != nil }()
			tc.op(&task)
		})
		if !panicked {
			t.Errorf("%s did not panic", tc.name)
		}
	}
}

// TestTaskSharedMemory: a bound task has no shared memory until UseArena,
// and an arena stays unallocated until the first Shared(), which carves the
// task's slice out of it.
func TestTaskSharedMemory(t *testing.T) {
	var arena []byte
	launchRun(1, 32, func(c *Ctx) {
		var task Task
		task.Bind(c, 1, 0)
		if task.HasShared() {
			t.Error("a task Bind made has shared memory before UseArena")
		}

		task.BindWarp(c, 32, 1, 0, nil, "args")
		task.UseArena(&arena, 1024, 256, 128)
		if !task.HasShared() || task.Args() != "args" || arena != nil {
			t.Errorf("HasShared = %v, Args = %v, arena allocated = %v before the first Shared()",
				task.HasShared(), task.Args(), arena != nil)
		}
		s := task.Shared()
		s[0] = 7
		if len(arena) != 1024 || arena[256] != 7 || len(s) != 128 || cap(s) != 128 {
			t.Errorf("arena %d B, arena[256] = %d, slice len %d cap %d; want 1024, 7, 128, 128",
				len(arena), arena[256], len(s), cap(s))
		}
	})
}
