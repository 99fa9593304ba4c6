package sim

import "sync"

// FreeList is a bounded, process-wide LIFO of idle values, shared by every
// engine (the harness runs engines on several goroutines at once), so a
// sequence of simulations reuses what the ones before it gave back. It
// holds at most its bound; a value put beyond it is the caller's to drop.
// It is not a sync.Pool: values outlive a GC, so a steady state allocates
// nothing, and an idle coroutine the GC dropped would stay parked forever.
//
// sim keeps two: the idle coroutines (workers), which a Run's end gives
// back, and the delay-lane arrays (laneArrays), which Close gives back.
// The gpu package keeps a third, of exited warps, fed when a closed
// engine's devices hand theirs back (Engine.OnClose).
type FreeList[T any] struct {
	mu   sync.Mutex
	max  int
	free []T
}

// NewFreeList returns an empty list that holds at most max values.
func NewFreeList[T any](max int) *FreeList[T] { return &FreeList[T]{max: max} }

// Get takes the value put last, or reports false when the list is empty.
func (l *FreeList[T]) Get() (v T, ok bool) {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		v, ok = l.free[n-1], true
		var zero T
		l.free[n-1] = zero
		l.free = l.free[:n-1]
	}
	l.mu.Unlock()
	return v, ok
}

// Put gives v to the list, or reports false, keeping nothing, when the
// list is at its bound.
func (l *FreeList[T]) Put(v T) bool {
	l.mu.Lock()
	ok := len(l.free) < l.max
	if ok {
		l.free = append(l.free, v)
	}
	l.mu.Unlock()
	return ok
}
