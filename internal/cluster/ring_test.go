package cluster

import (
	"fmt"
	"testing"
)

// TestRingCoversAllShards: every key's sequence enumerates each shard
// exactly once, home shard first.
func TestRingCoversAllShards(t *testing.T) {
	r := newRing([]int{1, 2, 3, 4, 5})
	for i := 0; i < 100; i++ {
		seq := r.sequence([]byte(fmt.Sprintf("key-%d", i)))
		if len(seq) != 5 {
			t.Fatalf("sequence(%d) has %d shards, want 5", i, len(seq))
		}
		seen := map[int]bool{}
		for _, s := range seq {
			if seen[s] {
				t.Fatalf("sequence(%d) repeats shard %d: %v", i, s, seq)
			}
			seen[s] = true
		}
	}
	if newRing(nil).sequence([]byte("x")) != nil {
		t.Fatal("empty ring produced a sequence")
	}
}

// TestRingDistribution: with 64 vnodes per shard, load stays within a
// loose band of uniform — no shard starves, none dominates.
func TestRingDistribution(t *testing.T) {
	const shards, keys = 5, 10000
	ids := make([]int, shards)
	for i := range ids {
		ids[i] = i + 1
	}
	r := newRing(ids)
	counts := map[int]int{}
	for i := 0; i < keys; i++ {
		counts[r.sequence([]byte(fmt.Sprintf("key-%d", i)))[0]]++
	}
	for id, n := range counts {
		frac := float64(n) / keys
		if frac < 0.05 || frac > 0.45 {
			t.Fatalf("shard %d owns %.1f%% of keys (counts %v); vnode spread is broken", id, frac*100, counts)
		}
	}
	if len(counts) != shards {
		t.Fatalf("only %d of %d shards received keys: %v", len(counts), shards, counts)
	}
}

// TestRingStabilityOnGrowth is the consistent-hashing acceptance check:
// adding one shard to N moves roughly 1/(N+1) of placements, nowhere near
// the ~N/(N+1) a modulo partitioner reshuffles.
func TestRingStabilityOnGrowth(t *testing.T) {
	const keys = 10000
	before := newRing([]int{1, 2, 3, 4, 5})
	after := newRing([]int{1, 2, 3, 4, 5, 6})
	moved, toNew := 0, 0
	for i := 0; i < keys; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		b, a := before.sequence(key)[0], after.sequence(key)[0]
		if b != a {
			moved++
			if a == 6 {
				toNew++
			}
		}
	}
	// Ideal movement is 1/6 ≈ 16.7%; allow vnode variance up to 30%.
	if frac := float64(moved) / keys; frac > 0.30 {
		t.Fatalf("adding 1 shard to 5 moved %.1f%% of keys; want ~16.7%%", frac*100)
	}
	// Every moved key must land on the new shard: keys never shuffle
	// between surviving shards.
	if toNew != moved {
		t.Fatalf("%d keys moved between surviving shards (of %d moved); consistent hashing broken", moved-toNew, moved)
	}
}

// TestRingRemovalOnlyMovesOrphans: removing a shard re-homes only its own
// keys.
func TestRingRemovalOnlyMovesOrphans(t *testing.T) {
	const keys = 10000
	before := newRing([]int{1, 2, 3, 4})
	after := newRing([]int{1, 2, 4})
	for i := 0; i < keys; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		b, a := before.sequence(key)[0], after.sequence(key)[0]
		if b != 3 && b != a {
			t.Fatalf("key %d moved %d→%d though shard 3 was the one removed", i, b, a)
		}
		if a == 3 {
			t.Fatalf("key %d still routes to removed shard 3", i)
		}
	}
}

// TestRingSpilloverFollowsRing: a key's spillover order equals the ring
// walk, so two routers with the same membership agree on fallback order.
func TestRingSpilloverFollowsRing(t *testing.T) {
	a := newRing([]int{1, 2, 3})
	b := newRing([]int{1, 2, 3})
	for i := 0; i < 50; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		sa, sb := a.sequence(key), b.sequence(key)
		for k := range sa {
			if sa[k] != sb[k] {
				t.Fatalf("rings over identical membership disagree on %q: %v vs %v", key, sa, sb)
			}
		}
	}
}
