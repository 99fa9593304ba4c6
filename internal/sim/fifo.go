package sim

// FIFO is a first-in, first-out queue that keeps its backing array: Pop
// advances a head index instead of reslicing the front away, and Push slides
// the queued items down before it would grow the array. A queue that drains
// and refills therefore stops allocating once it has reached its peak
// length. The zero value is an empty queue.
type FIFO[T any] struct {
	items []T // items[head:] are queued, oldest first
	head  int
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return len(q.items) - q.head }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if len(q.items) == cap(q.items) {
		q.compact()
	}
	q.items = append(q.items, v)
}

// Peek returns the oldest item. The queue must not be empty.
func (q *FIFO[T]) Peek() T { return q.items[q.head] }

// Pop removes and returns the oldest item. The queue must not be empty.
func (q *FIFO[T]) Pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v
}

// Items returns the queued items, oldest first. The slice aliases the queue
// and is valid only until its next Push, Pop, Grow or Clear.
func (q *FIFO[T]) Items() []T { return q.items[q.head:] }

// Clear empties the queue, keeping its backing array.
func (q *FIFO[T]) Clear() {
	clear(q.items)
	q.items = q.items[:0]
	q.head = 0
}

// Grow makes room for n more items without reallocating, so a caller that
// knows its peak length pays one allocation for it, not a doubling series.
func (q *FIFO[T]) Grow(n int) {
	q.compact()
	if cap(q.items)-len(q.items) < n {
		grown := make([]T, len(q.items), len(q.items)+n)
		copy(grown, q.items)
		q.items = grown
	}
}

// compact slides the queued items to the front of the backing array,
// reclaiming the slots Pop has consumed.
func (q *FIFO[T]) compact() {
	if q.head == 0 {
		return
	}
	n := copy(q.items, q.items[q.head:])
	clear(q.items[n:])
	q.items = q.items[:n]
	q.head = 0
}
