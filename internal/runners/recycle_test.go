package runners

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/workloads"
)

// BenchmarkGeMTCNode measures what a Titan X GeMTC node allocates to run
// 24 MB tasks once closed engines have given back their warps, as every
// node of a fleet after the first simulation finds them: its SuperKernel
// fills the device with 384 workers of 4 warps, and those 1,536 warps (312
// KiB) are recycled ones. A warm-up run fills the warp list, the
// coroutine pool and the tape slab, and B/op and allocs/op are those of
// the leanest run after it, so they are exact counts:
//
//	go test -bench=BenchmarkGeMTCNode -benchtime=10x -run='^$' ./internal/runners/
func BenchmarkGeMTCNode(b *testing.B) {
	b.ReportAllocs()
	mb, err := workloads.ByName("MB")
	if err != nil {
		b.Fatal(err)
	}
	tasks := mb.Make(workloads.Options{Tasks: 24, Threads: 128, Seed: 1})
	cfg := DefaultConfig()
	RunGeMTC(tasks, cfg)
	bytes, objects := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for i := 0; i < b.N; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		RunGeMTC(tasks, cfg)
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		objects = min(objects, after.Mallocs-before.Mallocs)
	}
	b.ReportMetric(float64(bytes), "B/op")
	b.ReportMetric(float64(objects), "allocs/op")
}
