package sim

import "sync"

// slabChunk is how many values a Slab allocates at once, and slabChunks
// bounds how many chunks it may hold: 1<<20 values in all.
const (
	slabChunk  = 256
	slabChunks = 1 << 12
)

// Slab is a process-wide store of T values behind stable uint32 handles,
// shared by every engine (the harness runs engines on several goroutines at
// once). A handle fits where a pointer does not: a tape's four bytes in a
// GPU warp keep the warp within its size pin. Get and Put go through a mutex; At does not, since
// a chunk never moves once made and a handle reaches its holder only
// through Get. Like the worker pool, a Slab is a free list rather than a
// sync.Pool, so values outlive a GC and a steady state allocates nothing.
// The zero Slab is empty and ready to use.
type Slab[T any] struct {
	mu     sync.Mutex
	chunks [slabChunks]*[slabChunk]T
	made   uint32
	free   []uint32
}

// Get takes a free value and its handle, making a chunk when none is free.
// The value is as the last Put left it.
func (s *Slab[T]) Get() (uint32, *T) {
	s.mu.Lock()
	var h uint32
	if n := len(s.free); n > 0 {
		h = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		if s.made%slabChunk == 0 {
			if s.made/slabChunk == slabChunks {
				s.mu.Unlock()
				panic("sim: slab exhausted")
			}
			s.chunks[s.made/slabChunk] = new([slabChunk]T)
		}
		h = s.made
		s.made++
	}
	s.mu.Unlock()
	return h, s.At(h)
}

// At returns the value behind a handle its caller holds.
func (s *Slab[T]) At(h uint32) *T { return &s.chunks[h/slabChunk][h%slabChunk] }

// Put returns a handle taken with Get; its value may be handed out again.
func (s *Slab[T]) Put(h uint32) {
	s.mu.Lock()
	s.free = append(s.free, h)
	s.mu.Unlock()
}
