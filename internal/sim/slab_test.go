package sim

import (
	"sync"
	"testing"
)

// TestSlabReusesHandles: a handle Put is handed out again before a new one
// is made, a value keeps its address across chunks being made, and the
// free count returns to where it was once every handle is back.
func TestSlabReusesHandles(t *testing.T) {
	var s Slab[[4]int]
	var hs []uint32
	first := map[uint32]*[4]int{}
	for i := 0; i < 2*slabChunk+3; i++ {
		h, v := s.Get()
		v[0] = int(h)
		hs = append(hs, h)
		first[h] = v
	}
	for _, h := range hs {
		if v := s.At(h); v != first[h] || v[0] != int(h) {
			t.Fatalf("handle %d: value moved or changed", h)
		}
	}
	for _, h := range hs {
		s.Put(h)
	}
	if got := len(s.free); got != len(hs) {
		t.Fatalf("Free = %d after returning %d handles", got, len(hs))
	}
	h, _ := s.Get()
	if h != hs[len(hs)-1] {
		t.Fatalf("Get made handle %d; the last one Put was %d", h, hs[len(hs)-1])
	}
	s.Put(h)
	if got := len(s.free); got != len(hs) {
		t.Fatalf("Free = %d, want %d: a reused handle made a new one", got, len(hs))
	}
}

// TestSlabConcurrentEngines: goroutines sharing a slab, as engines on
// several harness workers share the tape slab, each see only their own
// writes behind the handles they hold (run it with -race).
func TestSlabConcurrentEngines(t *testing.T) {
	var s Slab[int]
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []uint32
			for i := 0; i < 3*slabChunk; i++ {
				h, v := s.Get()
				*v = g
				held = append(held, h)
				if i%3 == 2 {
					for _, h := range held {
						if *s.At(h) != g {
							t.Errorf("goroutine %d: handle %d holds %d", g, h, *s.At(h))
						}
						s.Put(h)
					}
					held = held[:0]
				}
			}
		}()
	}
	wg.Wait()
}
