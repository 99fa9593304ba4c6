package core

import (
	"math/bits"
	"testing"
)

// FuzzBuddy decodes its input as a sequence of two-byte ops on the paper's
// 32 KB / 512 B arena — Alloc(size), Free, MarkForDealloc and DrainPending —
// and checks after every op that the tree invariant holds, that no two live
// blocks overlap, that every block lies inside the arena, and that a drain
// frees exactly the live blocks marked for deallocation.
func FuzzBuddy(f *testing.F) {
	f.Add([]byte{0, 10, 0, 3, 2, 0, 3, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 200, 2, 2, 1, 0, 3, 0})
	f.Add([]byte{2, 5, 0, 50, 3, 0, 0, 1, 2, 0, 2, 0, 3, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const arena, minBlock = 32 * 1024, 512
		b := NewBuddy(arena, minBlock)
		type block struct {
			off, size, node int
			marked          bool
		}
		var live []block
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%4, int(ops[i+1])
			switch op {
			case 0: // Alloc from 1 B up to past the arena
				if off, node, ok := b.Alloc(arg*160 + 1); ok {
					live = append(live, block{off: off, size: arena >> (bits.Len(uint(node)) - 1), node: node})
				}
			case 1: // Free a live block
				if len(live) > 0 {
					j := arg % len(live)
					b.Free(live[j].node)
					live = append(live[:j], live[j+1:]...)
				}
			case 2: // MarkForDealloc a live block, or any node index
				n := arg >> 1
				if arg&1 == 0 && len(live) > 0 {
					n = live[n%len(live)].node
				}
				b.MarkForDealloc(n)
				for j := range live {
					if live[j].node == n {
						live[j].marked = true
					}
				}
			case 3: // DrainPending
				want, kept := 0, live[:0]
				for _, blk := range live {
					if blk.marked {
						want++
					} else {
						kept = append(kept, blk)
					}
				}
				live = kept
				if got := b.DrainPending(); got != want {
					t.Fatalf("op %d: DrainPending freed %d blocks, want the %d marked live ones", i/2, got, want)
				}
			}
			if !b.invariantOK() {
				t.Fatalf("op %d: a marked node has an unmarked parent", i/2)
			}
			total := 0
			for j, x := range live {
				if x.off < 0 || x.off+x.size > arena {
					t.Fatalf("op %d: block [%d,%d) outside the %d B arena", i/2, x.off, x.off+x.size, arena)
				}
				for _, y := range live[:j] {
					if x.off < y.off+y.size && y.off < x.off+x.size {
						t.Fatalf("op %d: blocks [%d,%d) and [%d,%d) overlap", i/2, x.off, x.off+x.size, y.off, y.off+y.size)
					}
				}
				total += x.size
			}
			if b.Allocated() != total {
				t.Fatalf("op %d: Allocated = %d, live blocks hold %d", i/2, b.Allocated(), total)
			}
		}
	})
}
