package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuddyPaperGeometry(t *testing.T) {
	b := NewBuddy(32*1024, 512)
	// "the total number of nodes in the tree is 128" (127 nodes + unused
	// slot 0 in the 1-based array).
	if b.NumNodes() != 128 {
		t.Fatalf("NumNodes = %d, want 128", b.NumNodes())
	}
}

func TestBuddyAllocFig3(t *testing.T) {
	// Fig. 3: allocating 8K from a free 32K tree.
	b := NewBuddy(32*1024, 512)
	off, node, ok := b.Alloc(8 * 1024)
	if !ok || off != 0 {
		t.Fatalf("Alloc(8K) = (%d,%d,%v), want offset 0", off, node, ok)
	}
	if !b.invariantOK() {
		t.Fatal("marked-parent invariant violated after alloc")
	}
	// A second 8K lands in the buddy block.
	off2, _, ok := b.Alloc(8 * 1024)
	if !ok || off2 != 8*1024 {
		t.Fatalf("second Alloc(8K) offset = %d, want 8192", off2)
	}
	// A 16K allocation must skip the half holding the two 8Ks.
	off3, _, ok := b.Alloc(16 * 1024)
	if !ok || off3 != 16*1024 {
		t.Fatalf("Alloc(16K) offset = %d, want 16384", off3)
	}
	// Arena now full.
	if _, _, ok := b.Alloc(512); ok {
		t.Fatal("allocation succeeded on a full arena")
	}
}

func TestBuddyFreeFig4(t *testing.T) {
	// Fig. 4: ancestors are freed only while the sibling is free.
	b := NewBuddy(32*1024, 512)
	_, n1, _ := b.Alloc(4 * 1024)
	_, n2, _ := b.Alloc(4 * 1024)
	b.Free(n1)
	if !b.invariantOK() {
		t.Fatal("invariant violated after free")
	}
	// n2 still allocated: its parent must remain marked, so a fresh 8K must
	// not overlap [0, 8K).
	off, n8, ok := b.Alloc(8 * 1024)
	if !ok || off < 8*1024 {
		t.Fatalf("Alloc(8K) after partial free landed at %d, overlapping live 4K block", off)
	}
	b.Free(n8)
	b.Free(n2)
	// Now the whole first half coalesces: a 16K alloc fits at offset 0.
	off16, _, ok := b.Alloc(16 * 1024)
	if !ok || off16 != 0 {
		t.Fatalf("coalescing failed: Alloc(16K) = (%d, %v), want offset 0", off16, ok)
	}
}

func TestBuddyRoundsUpToBlockSize(t *testing.T) {
	b := NewBuddy(32*1024, 512)
	_, _, ok := b.Alloc(513) // rounds to 1K
	if !ok {
		t.Fatal("alloc failed")
	}
	if b.Allocated() != 1024 {
		t.Fatalf("Allocated = %d, want 1024 (rounded)", b.Allocated())
	}
}

func TestBuddyOversizeFails(t *testing.T) {
	b := NewBuddy(32*1024, 512)
	if _, _, ok := b.Alloc(64 * 1024); ok {
		t.Fatal("alloc larger than arena succeeded")
	}
}

func TestBuddyDeferredDealloc(t *testing.T) {
	b := NewBuddy(32*1024, 512)
	var nodes []int
	for i := 0; i < 64; i++ { // fill the arena with 512B blocks
		_, n, ok := b.Alloc(512)
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		nodes = append(nodes, n)
	}
	if _, _, ok := b.Alloc(512); ok {
		t.Fatal("arena should be full")
	}
	for _, n := range nodes {
		b.MarkForDealloc(n)
	}
	if b.PendingFrees() != 64 {
		t.Fatalf("PendingFrees = %d, want 64", b.PendingFrees())
	}
	// Nothing is actually free until the scheduler warp drains.
	if _, _, ok := b.Alloc(512); ok {
		t.Fatal("marked blocks freed too early")
	}
	if n := b.DrainPending(); n != 64 {
		t.Fatalf("DrainPending = %d, want 64", n)
	}
	if _, _, ok := b.Alloc(32 * 1024); !ok {
		t.Fatal("full arena not reusable after drain")
	}
}

func TestBuddyNoOverlapProperty(t *testing.T) {
	// Property: live allocations never overlap, and the tree invariant holds
	// through arbitrary alloc/free sequences.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuddy(32*1024, 512)
		type alloc struct{ off, size, node int }
		var live []alloc
		for step := 0; step < 300; step++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				size := 512 << rng.Intn(5) // 512..8K
				off, node, ok := b.Alloc(size)
				if ok {
					for _, a := range live {
						if off < a.off+a.size && a.off < off+size {
							t.Logf("overlap: [%d,%d) vs [%d,%d)", off, off+size, a.off, a.off+a.size)
							return false
						}
					}
					live = append(live, alloc{off, size, node})
				}
			} else {
				i := rng.Intn(len(live))
				b.Free(live[i].node)
				live = append(live[:i], live[i+1:]...)
			}
			if !b.invariantOK() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBuddyFullDrainRestoresEmptyState(t *testing.T) {
	// Property: allocating then freeing everything returns to a state where
	// a full-arena allocation succeeds.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuddy(16*1024, 512)
		var nodes []int
		for i := 0; i < 40; i++ {
			if _, n, ok := b.Alloc(512 << rng.Intn(4)); ok {
				nodes = append(nodes, n)
			}
		}
		for _, n := range nodes {
			b.Free(n)
		}
		if b.Allocated() != 0 {
			return false
		}
		_, _, ok := b.Alloc(16 * 1024)
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBuddyInvalidFreePanics(t *testing.T) {
	b := NewBuddy(32*1024, 512)
	for _, n := range []int{0, -1, 5, 500} {
		n := n
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Free(%d) did not panic", n)
				}
			}()
			b.Free(n)
		}()
	}
}

func TestBuddyInvalidGeometryPanics(t *testing.T) {
	for _, tc := range [][2]int{{0, 512}, {1000, 512}, {4096, 3}, {256, 512}} {
		tc := tc
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBuddy(%d,%d) did not panic", tc[0], tc[1])
				}
			}()
			NewBuddy(tc[0], tc[1])
		}()
	}
}

// The accessors below read allocator state for the tests.

// Allocated returns currently allocated bytes (not counting pending frees).
func (b *Buddy) Allocated() int { return b.allocated }

// PendingFrees returns the number of blocks awaiting DrainPending.
func (b *Buddy) PendingFrees() int { return len(b.pending) }

// StaleDeallocs returns how many deferred deallocations were dropped as
// duplicates or superseded by an explicit Free.
func (b *Buddy) StaleDeallocs() int { return b.staleDeallocs }

// NumNodes returns the size of the node array including the unused slot 0
// (128 for the paper's 32 KB / 512 B configuration).
func (b *Buddy) NumNodes() int { return len(b.marked) }

// invariantOK verifies "marked node implies marked parent".
func (b *Buddy) invariantOK() bool {
	for n := 2; n < len(b.marked); n++ {
		if b.marked[n] && !b.marked[n/2] {
			return false
		}
	}
	return true
}
