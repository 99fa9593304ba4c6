package core

// Buddy is the software shared-memory allocator of §5.1: memory blocks form
// a complete binary tree laid out as an array ("arranged as an array in the
// shared memory itself"). The leaves are MinBlock-byte blocks; each parent
// represents a block twice as large. A marked node is allocated.
//
// Invariant (as stated in the paper): if a node is marked, its parent is
// marked. Allocation therefore only needs to find an *unmarked* node at the
// right level — an unmarked node implies a fully free subtree — then mark the
// node plus all of its ancestors and descendants. Deallocation unmarks the
// descendants and walks up unmarking ancestors while the sibling is free.
//
// With the paper's parameters (32 KB arena, 512 B granularity) the tree has
// 64 leaves and 127 nodes, stored 1-based in a 128-element array — "the total
// number of nodes in the tree is 128, small enough to fit in the shared
// memory".
//
// Only the MTB's scheduler warp allocates and deallocates, so no locking is
// needed; executor warps merely mark blocks for deferred deallocation
// (deallocMarkedSM in Algorithm 1).
type Buddy struct {
	arena    int // total bytes
	minBlock int
	levels   int // tree depth; level 0 is the root
	marked   []bool
	// gen counts allocation-state changes per node (bumped on Alloc and
	// Free). A pending entry is only honoured if the node's generation still
	// matches the one captured at MarkForDealloc time, so duplicate marks,
	// mark-then-explicit-Free, and free-then-realloc races all become benign
	// stale entries instead of panics in the scheduler warp path. A node's
	// generation is odd exactly while it is allocated as a block of its own;
	// an even one means free, or marked only as part of another block.
	gen     []uint32
	pending []pendingFree // nodes marked for deferred deallocation
	// inPending/pendingGen dedup MarkForDealloc calls per (node, generation)
	// between drains: a mark after the node was freed and reallocated is a new
	// generation, not a duplicate.
	inPending  []bool
	pendingGen []uint32
	// allocated tracks currently allocated bytes (diagnostics/tests).
	allocated int //pagoda:allow unused FuzzBuddy, the dealloc tests and the runtime leak checks read it through Allocated
	// staleDeallocs counts pending entries skipped as stale (diagnostics).
	staleDeallocs int //pagoda:allow unused TestBuddyDoubleMarkDeduped and TestBuddyMarkInvalidNode read it through StaleDeallocs
}

// pendingFree is one deferred deallocation: the node plus the allocation
// generation it belongs to.
type pendingFree struct {
	node int
	gen  uint32
}

// NewBuddy builds an allocator over an arena of the given size. arena and
// minBlock must be powers of two with arena >= minBlock.
func NewBuddy(arena, minBlock int) *Buddy {
	if !buddyShapeOK(arena, minBlock) {
		panic("core: buddy arena and min block must be powers of two, arena >= minBlock")
	}
	levels := 0
	for s := arena; s > minBlock; s >>= 1 {
		levels++
	}
	nodes := 1 << (levels + 1) // 1-based array; index 0 unused
	return &Buddy{
		arena: arena, minBlock: minBlock, levels: levels,
		marked:     make([]bool, nodes),
		gen:        make([]uint32, nodes),
		inPending:  make([]bool, nodes),
		pendingGen: make([]uint32, nodes),
	}
}

// buddyShapeOK reports whether NewBuddy accepts arena and minBlock.
func buddyShapeOK(arena, minBlock int) bool {
	return arena > 0 && minBlock > 0 && arena&(arena-1) == 0 && minBlock&(minBlock-1) == 0 && arena >= minBlock
}

// levelFor returns the tree level whose block size is the smallest >= size,
// or -1 if size exceeds the arena.
func (b *Buddy) levelFor(size int) int {
	if size > b.arena {
		return -1
	}
	lvl := b.levels
	block := b.minBlock
	for block < size {
		block <<= 1
		lvl--
	}
	return lvl
}

// nodeSize returns the block size of a node at the given level.
func (b *Buddy) nodeSize(level int) int { return b.arena >> level }

// nodeOffset returns the arena byte offset of node n.
func (b *Buddy) nodeOffset(n int) int {
	level := 0
	for (1 << (level + 1)) <= n {
		level++
	}
	first := 1 << level
	return (n - first) * b.nodeSize(level)
}

// Alloc reserves a block of at least `size` bytes. It returns the arena
// offset and the node handle to pass to Free/MarkForDealloc. ok is false when
// no block of the required size is free (the caller retries after draining
// pending frees, per Algorithm 1 line 22).
func (b *Buddy) Alloc(size int) (offset, node int, ok bool) {
	if size <= 0 {
		panic("core: non-positive allocation")
	}
	lvl := b.levelFor(size)
	if lvl < 0 {
		return 0, 0, false
	}
	first := 1 << lvl
	for n := first; n < first*2; n++ {
		if !b.marked[n] {
			b.markSubtree(n)
			b.markAncestors(n)
			b.allocated += b.nodeSize(lvl)
			b.gen[n]++
			return b.nodeOffset(n), n, true
		}
	}
	return 0, 0, false
}

func (b *Buddy) markSubtree(n int) {
	if n >= len(b.marked) {
		return
	}
	b.marked[n] = true
	b.markSubtree(2 * n)
	b.markSubtree(2*n + 1)
}

func (b *Buddy) markAncestors(n int) {
	for n > 1 {
		n /= 2
		b.marked[n] = true
	}
}

// Free releases a node returned by Alloc: unmark the subtree, then walk up
// unmarking each ancestor whose other child is free.
func (b *Buddy) Free(node int) {
	if node <= 0 || node >= len(b.marked) || !b.marked[node] {
		panic("core: Free of invalid or unallocated node")
	}
	level := 0
	for (1 << (level + 1)) <= node {
		level++
	}
	b.allocated -= b.nodeSize(level)
	b.gen[node]++
	b.unmarkSubtree(node)
	for n := node; n > 1; {
		sibling := n ^ 1
		if b.marked[sibling] {
			break
		}
		n /= 2
		b.marked[n] = false
	}
}

func (b *Buddy) unmarkSubtree(n int) {
	if n >= len(b.marked) {
		return
	}
	b.marked[n] = false
	b.unmarkSubtree(2 * n)
	b.unmarkSubtree(2*n + 1)
}

// MarkForDealloc records a block for deferred deallocation. Executor warps
// call this when a threadblock finishes; the scheduler warp later drains the
// list. (Immediate freeing by executors could race with the scheduler's
// allocations — §4.3.) Marking the same node twice before a drain is a
// no-op; marking an unallocated node records a stale entry that the drain
// skips and counts rather than panicking on.
func (b *Buddy) MarkForDealloc(node int) {
	if node <= 0 || node >= len(b.marked) {
		b.staleDeallocs++
		return
	}
	if b.inPending[node] && b.pendingGen[node] == b.gen[node] {
		b.staleDeallocs++
		return // duplicate mark of the same allocation before drain
	}
	b.inPending[node] = true
	b.pendingGen[node] = b.gen[node]
	b.pending = append(b.pending, pendingFree{node: node, gen: b.gen[node]})
}

// DrainPending frees every block marked for deallocation and reports how
// many were freed (deallocMarkedSM in Algorithm 1). Entries whose node was
// explicitly freed (or freed and reallocated) since being marked are counted
// as stale and skipped instead of crashing the scheduler warp path; see
// StaleDeallocs.
func (b *Buddy) DrainPending() int {
	freed := 0
	for _, pf := range b.pending {
		b.inPending[pf.node] = false
		if pf.gen != b.gen[pf.node] || pf.gen&1 == 0 {
			b.staleDeallocs++
			continue
		}
		b.Free(pf.node)
		freed++
	}
	b.pending = b.pending[:0]
	return freed
}
