package sim

import (
	"slices"
	"sync"
	"testing"
)

// TestFreeListBound: a FreeList hands values back last in, first out, and
// never holds more than its bound, however many goroutines put to it at
// once; a value put beyond the bound is refused, not kept.
func TestFreeListBound(t *testing.T) {
	l := NewFreeList[int](3)
	for v := 1; v <= 5; v++ {
		if got, want := l.Put(v), v <= 3; got != want {
			t.Fatalf("Put(%d) = %v, want %v", v, got, want)
		}
	}
	var got []int
	for {
		v, ok := l.Get()
		if !ok {
			break
		}
		got = append(got, v)
	}
	if want := []int{3, 2, 1}; !slices.Equal(got, want) {
		t.Fatalf("Get order %v, want %v", got, want)
	}

	const bound = 64
	c := NewFreeList[*int](bound)
	var wg sync.WaitGroup
	kept := make([]int, 4)
	for g := range kept {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				if c.Put(new(int)) {
					kept[g]++
				}
				c.mu.Lock()
				n := len(c.free)
				c.mu.Unlock()
				if n > bound {
					t.Errorf("list holds %d, over its bound %d", n, bound)
				}
			}
		}()
	}
	wg.Wait()
	if n := kept[0] + kept[1] + kept[2] + kept[3]; n != bound || len(c.free) != bound {
		t.Errorf("puts kept %d values and the list holds %d, want %d each", n, len(c.free), bound)
	}
}
