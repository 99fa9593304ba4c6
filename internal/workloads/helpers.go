package workloads

import (
	"fmt"
	"math"
)

// pickThreads selects a task's thread count. Regular runs use the requested
// (or default) count; irregular runs (§6.3) size the thread count to the
// task's work, clamped to the paper's 32..256 range and rounded to warps —
// "the runtime schemes of Pagoda/CUDA-HyperQ allow for dynamic thread count
// selection, based on the size of the irregular task".
func (o Options) pickThreads(def, units, baseUnits int) int {
	if !o.Irregular {
		return o.threads(def)
	}
	t := def
	if baseUnits > 0 {
		t = int(float64(def) * float64(units) / float64(baseUnits))
	}
	t = (t + 31) / 32 * 32
	if t < 32 {
		t = 32
	}
	if t > 256 {
		t = 256
	}
	return t
}

func approxEqual32(name string, got, want []float32, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		d := math.Abs(float64(got[i] - want[i]))
		scale := math.Max(1, math.Abs(float64(want[i])))
		if d/scale > tol {
			return fmt.Errorf("%s: element %d: got %v, want %v", name, i, got[i], want[i])
		}
	}
	return nil
}

func approxEqual64(name string, got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		d := math.Abs(got[i] - want[i])
		scale := math.Max(1, math.Abs(want[i]))
		if d/scale > tol {
			return fmt.Errorf("%s: element %d: got %v, want %v", name, i, got[i], want[i])
		}
	}
	return nil
}

func equalU64(name string, got, want []uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: word %d: got %#x, want %#x", name, i, got[i], want[i])
		}
	}
	return nil
}

func equalInts(name string, got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: element %d: got %d, want %d", name, i, got[i], want[i])
		}
	}
	return nil
}
