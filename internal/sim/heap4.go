package sim

// The event queue is a 4-ary min-heap ordered by (at, seq), stored 0-based in
// Engine.queue, beside two kinds of FIFO lane that take non-timer events
// without any sifting:
//
//   - the same-instant lane (Engine.lane), for events scheduled at the
//     current instant;
//   - one fixed-delay lane per delay registered with RegisterDelay
//     (Engine.dlanes), for process resumes scheduled that delay d from
//     now, when now+d moves the clock. The GPU model registers its memory
//     latencies, which end most warp ops.
//
// Each lane is in (at, seq) order by construction. An entry of lane d is
// keyed at = now+d: the clock never runs backward, float addition rounds
// monotonically, so a later entry's at is never smaller, and seq only
// grows. dispatch fires the earliest of the three heads (the same-instant
// lane's, the heap's and that of the delay lane dhead names), which is the
// event the heap alone would have popped: order, counts other than
// HeapPushes and DelayPushes, and every instant are unchanged
// (TestDelayLanesKeepOrder). A push changes dhead only when it fills an
// empty lane, and a pop rescans at most maxDelayLanes heads. Timers stay
// in the heap, because they re-key in place.
//
// A 4-ary layout halves the tree depth of a binary heap, which cuts
// comparisons on the sift-up path (the common case: most events are
// scheduled near the clock and popped soon after) and keeps sibling keys on
// one cache line. Every entry carries its own position (event.idx), so armed
// timers can be re-keyed in place instead of abandoning stale entries in the
// queue.

const heapArity = 4

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush appends ev and restores heap order.
func (e *Engine) heapPush(ev *event) {
	e.queue = append(e.queue, ev)
	ev.idx = len(e.queue) - 1
	e.siftUp(ev.idx)
	e.stats.HeapPushes++
	e.notePending()
}

// heapPopHead removes and returns the earliest event.
func (e *Engine) heapPopHead() *event {
	h := e.queue
	root := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[0].idx = 0
	h[n] = nil
	e.queue = h[:n]
	if n > 0 {
		e.siftDown(0)
	}
	root.idx = -1
	return root
}

// heapFix restores order after the key of the entry at index i changed
// (Timer.ResetAt's decrease/increase-key).
func (e *Engine) heapFix(i int) {
	if !e.siftDown(i) {
		e.siftUp(i)
	}
}

func (e *Engine) siftUp(i int) {
	h := e.queue
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		p := h[parent]
		if !eventLess(ev, p) {
			break
		}
		h[i] = p
		p.idx = i
		i = parent
	}
	h[i] = ev
	ev.idx = i
}

// siftDown restores order below index i and reports whether the entry moved.
func (e *Engine) siftDown(i int) bool {
	h := e.queue
	n := len(h)
	ev := h[i]
	start := i
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventLess(h[c], h[min]) {
				min = c
			}
		}
		if !eventLess(h[min], ev) {
			break
		}
		h[i] = h[min]
		h[i].idx = i
		i = min
	}
	h[i] = ev
	ev.idx = i
	return i != start
}
