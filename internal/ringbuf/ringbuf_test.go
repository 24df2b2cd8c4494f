package ringbuf

import "testing"

func TestFIFOOrder(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 100; i++ {
		r.Push(i)
	}
	if r.Len() != 100 {
		t.Fatalf("Len = %d, want 100", r.Len())
	}
	for i := 0; i < 100; i++ {
		v, ok := r.Pop()
		if !ok || v != i {
			t.Fatalf("Pop #%d = %d,%v, want %d,true", i, v, ok, i)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("Pop on empty ring returned ok")
	}
}

func TestWraparound(t *testing.T) {
	var r Ring[int]
	next, want := 0, 0
	// Interleave pushes and pops so head walks around the buffer many
	// times without triggering growth.
	for round := 0; round < 200; round++ {
		for i := 0; i < 3; i++ {
			r.Push(next)
			next++
		}
		for i := 0; i < 3; i++ {
			v, ok := r.Pop()
			if !ok || v != want {
				t.Fatalf("round %d: Pop = %d,%v, want %d,true", round, v, ok, want)
			}
			want++
		}
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d after balanced push/pop", r.Len())
	}
}

func TestGrowthPreservesOrderAcrossWrap(t *testing.T) {
	var r Ring[int]
	// Fill, drain half so head is mid-buffer, then push past capacity to
	// force a grow while the ring is wrapped.
	for i := 0; i < minCap; i++ {
		r.Push(i)
	}
	for i := 0; i < minCap/2; i++ {
		r.Pop()
	}
	for i := minCap; i < 10*minCap; i++ {
		r.Push(i)
	}
	for want := minCap / 2; want < 10*minCap; want++ {
		v, ok := r.Pop()
		if !ok || v != want {
			t.Fatalf("Pop = %d,%v, want %d,true", v, ok, want)
		}
	}
}

func TestPeekAndAt(t *testing.T) {
	var r Ring[string]
	if _, ok := r.Peek(); ok {
		t.Fatal("Peek on empty ring returned ok")
	}
	r.Push("a")
	r.Push("b")
	r.Push("c")
	if v, ok := r.Peek(); !ok || v != "a" {
		t.Fatalf("Peek = %q,%v", v, ok)
	}
	if r.Len() != 3 {
		t.Fatalf("Peek consumed an element: Len = %d", r.Len())
	}
	for i, want := range []string{"a", "b", "c"} {
		if got := r.At(i); got != want {
			t.Errorf("At(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At(0) on empty ring did not panic")
		}
	}()
	var r Ring[int]
	r.At(0)
}

func TestPopZeroesSlot(t *testing.T) {
	var r Ring[*int]
	x := new(int)
	r.Push(x)
	r.Pop()
	for i := range r.buf {
		if r.buf[i] != nil {
			t.Fatal("popped slot still pins its reference")
		}
	}
}
