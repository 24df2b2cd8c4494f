package lru

import "testing"

func TestCacheBounds(t *testing.T) {
	c := New[string, int](2, 10)
	c.Add("a", 1, 4)
	c.Add("b", 2, 4)
	if v, ok := c.Get("a"); !ok || v != 1 { // a is now the most recent
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	c.Add("c", 3, 4) // over two entries: b, the least recently used, goes
	if _, ok := c.Get("b"); ok {
		t.Error("b survived an eviction by entry count")
	}
	c.Add("d", 4, 6) // over the weight: a, the least recently used, goes
	if _, ok := c.Get("a"); ok {
		t.Error("a survived an eviction by weight")
	}
	if n, w := len(c.entries), c.weight; n != 2 || w != 10 {
		t.Errorf("after the weight eviction: %d entries of weight %d, want 2 of 10", n, w)
	}
	if v := c.Add("heavy", 5, 11); v != 5 {
		t.Errorf("Add of an over-budget value returned %d", v)
	}
	if _, ok := c.Get("heavy"); ok {
		t.Error("a value over the budget was cached")
	}
	if v := c.Add("d", 9, 6); v != 4 {
		t.Errorf("a second Add of d returned %d, want the first value 4", v)
	}
}
