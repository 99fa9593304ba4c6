package sim

import "testing"

func TestSemLimitsConcurrency(t *testing.T) {
	e := New()
	s := NewSem(2)
	var inside, maxInside int
	for i := 0; i < 6; i++ {
		e.Spawn("w", func(p *Proc) {
			s.Acquire(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Sleep(10)
			inside--
			s.Release()
		})
	}
	e.Run()
	if maxInside != 2 {
		t.Fatalf("max concurrent holders = %d, want 2", maxInside)
	}
	if s.avail != 2 {
		t.Fatalf("%d permits after drain, want 2", s.avail)
	}
}

func TestSemFIFO(t *testing.T) {
	e := New()
	s := NewSem(1)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		e.Spawn("w", func(p *Proc) {
			p.Sleep(Time(i)) // stagger arrivals: 0,1,2,3
			s.Acquire(p)
			order = append(order, i)
			p.Sleep(100)
			s.Release()
		})
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("acquisition order = %v, want FIFO", order)
		}
	}
}

func TestNegativeSemPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSem(-1)
}
