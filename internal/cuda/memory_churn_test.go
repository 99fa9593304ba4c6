package cuda

import "testing"

// TestMallocFreeChurnBounded is the regression test for the bump-pointer
// leak: Malloc used to carve every allocation from a monotonically growing
// `next` pointer and never reuse freed address space, so steady Malloc/Free
// churn in a long-running service walked off the 12 GB device while InUse
// stayed low. With free-list reuse the touched address range stays bounded
// by the peak working set across a million alloc/free cycles.
func TestMallocFreeChurnBounded(t *testing.T) {
	_, ctx := newCtx(1)
	sizes := []int64{300, 4 << 10, 1 << 20, 777, 64 << 10}
	const cycles = 1_000_000
	var peak int64
	for i := 0; i < cycles; i++ {
		n := sizes[i%len(sizes)]
		p, err := ctx.Malloc(n)
		if err != nil {
			t.Fatalf("cycle %d: Malloc(%d): %v", i, n, err)
		}
		if hw := ctx.MemGetInfo().HighWater; hw > peak {
			peak = hw
		}
		if err := ctx.Free(p); err != nil {
			t.Fatalf("cycle %d: Free: %v", i, err)
		}
	}
	info := ctx.MemGetInfo()
	if info.InUse != 0 || info.Live != 0 {
		t.Fatalf("leak after churn: %+v", info)
	}
	// The working set is a single live allocation (max 1 MiB); the touched
	// address range must stay within a small constant of that, nowhere near
	// the 12 GB capacity the bump pointer used to march across.
	const bound = 4 << 20
	if peak > bound {
		t.Fatalf("high-water mark reached %d bytes over %d alloc/free cycles, want <= %d (bounded reuse)",
			peak, cycles, bound)
	}
}

// TestMallocFreeChurnInterleaved keeps several allocations live while
// churning others, so the free list must actually be searched (first-fit)
// and coalesced rather than only shrinking the bump pointer.
func TestMallocFreeChurnInterleaved(t *testing.T) {
	_, ctx := newCtx(1)
	var held []DevPtr
	for i := 0; i < 8; i++ {
		p, err := ctx.Malloc(128 << 10)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, p)
	}
	// Free every other held block, punching holes below the high-water mark.
	for i := 0; i < len(held); i += 2 {
		if err := ctx.Free(held[i]); err != nil {
			t.Fatal(err)
		}
	}
	hw := ctx.MemGetInfo().HighWater
	// Churn allocations that fit in the holes: the high-water mark must not
	// move.
	for i := 0; i < 100_000; i++ {
		p, err := ctx.Malloc(128 << 10)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if err := ctx.Free(p); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	if got := ctx.MemGetInfo().HighWater; got != hw {
		t.Fatalf("high-water mark grew from %d to %d while holes were reusable", hw, got)
	}
}

// TestFreeCoalescing frees three adjacent blocks in an order that exercises
// predecessor and successor merges, then reuses the merged span in one piece.
func TestFreeCoalescing(t *testing.T) {
	_, ctx := newCtx(1)
	a, _ := ctx.Malloc(4096)
	b, _ := ctx.Malloc(4096)
	c, _ := ctx.Malloc(4096)
	top, _ := ctx.Malloc(4096)            // pins the bump pointer above c
	for _, p := range []DevPtr{a, c, b} { // b's free must merge both sides
		if err := ctx.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if spans := ctx.MemGetInfo().FreeSpans; spans != 1 {
		t.Fatalf("FreeSpans = %d after adjacent frees, want 1 (coalesced)", spans)
	}
	big, err := ctx.Malloc(3 * 4096)
	if err != nil {
		t.Fatalf("coalesced span not reusable: %v", err)
	}
	if big != a {
		t.Fatalf("coalesced allocation at %#x, want reuse of base %#x", int64(big), int64(a))
	}
	ctx.Free(big)
	ctx.Free(top)
	// Everything freed: spans collapse back into the bump region.
	info := ctx.MemGetInfo()
	if info.HighWater != 0 || info.FreeSpans != 0 {
		t.Fatalf("address space not fully reclaimed: %+v", info)
	}
}
