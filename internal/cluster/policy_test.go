package cluster

import (
	"testing"
)

func views(outstanding ...int) []NodeView {
	vs := make([]NodeView, len(outstanding))
	for i, o := range outstanding {
		vs[i] = NodeView{Routed: o} // nothing done/dropped: Outstanding == Queued == o
	}
	return vs
}

func TestNodeViewDerivedCounts(t *testing.T) {
	v := NodeView{Routed: 10, Started: 7, Done: 5, Dropped: 1}
	if got := v.Outstanding(); got != 4 {
		t.Errorf("Outstanding = %d, want 4", got)
	}
	if got := v.Queued(); got != 2 {
		t.Errorf("Queued = %d, want 2", got)
	}
	if v.Conserved() {
		t.Error("mid-run view reported conserved")
	}
	if done := (NodeView{Routed: 6, Done: 5, Dropped: 1}); !done.Conserved() {
		t.Error("drained view not conserved")
	}
}

func TestRoundRobinCycles(t *testing.T) {
	p := NewRoundRobin()
	vs := views(9, 0, 0) // load is ignored
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i, w := range want {
		if got := p.Pick(0, Task{}, vs); got != w {
			t.Fatalf("pick %d = node %d, want %d", i, got, w)
		}
	}
}

func TestLeastOutstandingPrefersLightestLowestIndex(t *testing.T) {
	p := LeastOutstanding{}
	if got := p.Pick(0, Task{}, views(3, 1, 2)); got != 1 {
		t.Errorf("pick = %d, want 1", got)
	}
	// Ties break toward the lowest index.
	if got := p.Pick(0, Task{}, views(2, 1, 1)); got != 1 {
		t.Errorf("tie pick = %d, want 1", got)
	}
}

func TestJSQUsesQueueNotOutstanding(t *testing.T) {
	// Node 0: long queue, nothing in service. Node 1: short queue but lots in
	// service. JSQ must pick node 1; LeastOutstanding must pick node 0.
	vs := []NodeView{
		{Routed: 5, Started: 0, Done: 0}, // queued 5, outstanding 5
		{Routed: 9, Started: 8, Done: 0}, // queued 1, outstanding 9
	}
	if got := (JoinShortestQueue{}).Pick(0, Task{}, vs); got != 1 {
		t.Errorf("jsq pick = %d, want 1", got)
	}
	if got := (LeastOutstanding{}).Pick(0, Task{}, vs); got != 0 {
		t.Errorf("least pick = %d, want 0", got)
	}
}

func TestPowerOfTwoSeededDeterministicAndLoadAware(t *testing.T) {
	vs := views(0, 100, 100, 100) // node 0 always wins any probe pair containing it
	a, b := NewPowerOfTwo(7), NewPowerOfTwo(7)
	for i := 0; i < 64; i++ {
		pa, pb := a.Pick(0, Task{}, vs), b.Pick(0, Task{}, vs)
		if pa != pb {
			t.Fatalf("pick %d: same seed diverged: %d vs %d", i, pa, pb)
		}
		if pa < 0 || pa >= len(vs) {
			t.Fatalf("pick %d out of range: %d", i, pa)
		}
	}
	// Two idle nodes, two loaded: each idle node wins every pair it appears
	// in (ties between them break to node 0), node 2 wins only the {2,3}
	// pair, and node 3 — heaviest and highest-indexed — can never win.
	counts := make([]int, 4)
	p := NewPowerOfTwo(1)
	vs2 := views(0, 0, 100, 100)
	for i := 0; i < 4096; i++ {
		counts[p.Pick(0, Task{}, vs2)]++
	}
	for n, wantSome := range []bool{true, true, true, false} {
		if wantSome && counts[n] == 0 {
			t.Errorf("node %d never picked: %v", n, counts)
		}
		if !wantSome && counts[n] != 0 {
			t.Errorf("node %d picked %d times despite always losing its pairs", n, counts[n])
		}
	}
	if counts[0] <= counts[2] || counts[1] <= counts[2] {
		t.Errorf("idle nodes should dominate the loaded tail: %v", counts)
	}
	if got := NewPowerOfTwo(1).Pick(0, Task{}, views(5)); got != 0 {
		t.Errorf("single-node fleet pick = %d, want 0", got)
	}
}

// TestClassAffinityPinsHomes: every class lands on its home node (class mod
// N), even when that node's inbox is the deepest in the fleet.
func TestClassAffinityPinsHomes(t *testing.T) {
	vs := views(50, 0, 0, 0)
	for class := 0; class < 8; class++ {
		if got, want := (ClassAffinity{}).Pick(0, Task{Class: class}, vs), class%4; got != want {
			t.Errorf("class %d -> node %d, want %d", class, got, want)
		}
	}
}

func TestNewPolicyRegistry(t *testing.T) {
	for _, name := range PolicyNames() {
		mk, err := NewPolicy(name, 3)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		p := mk()
		if p.Name() != name {
			t.Errorf("NewPolicy(%q) built %q", name, p.Name())
		}
		if mk() == nil {
			t.Errorf("NewPolicy(%q) factory not reusable", name)
		}
	}
	if _, err := NewPolicy("bogus", 0); err == nil {
		t.Error("NewPolicy(bogus) did not fail")
	}
}
