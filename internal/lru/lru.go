// Package lru provides a small bounded least-recently-used cache, safe for
// concurrent use, for values that are built once and then shared read-only:
// the parsed topologies of mesh.Parse and the machine skeletons of core.
// Both bounds are constants of the caller: an entry count and a total
// weight, where the weight of an entry stands for its memory (nodes plus
// links). An entry heavier than the whole budget is never retained.
package lru

import "sync"

// Cache maps keys to shared values. The zero value is not usable; build one
// with New. Lookups scan a short recency-ordered slice, which at the entry
// counts it is meant for beats hashing.
type Cache[K comparable, V any] struct {
	mu         sync.Mutex
	maxEntries int
	maxWeight  int
	entries    []entry[K, V] // most recently used first
	weight     int           // summed over entries
}

type entry[K comparable, V any] struct {
	key    K
	value  V
	weight int
}

// New returns an empty cache holding at most maxEntries entries whose
// weights sum to at most maxWeight.
func New[K comparable, V any](maxEntries, maxWeight int) *Cache[K, V] {
	return &Cache[K, V]{maxEntries: maxEntries, maxWeight: maxWeight}
}

// Get returns the value cached under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := range c.entries {
		if e.key == k {
			copy(c.entries[1:i+1], c.entries[:i])
			c.entries[0] = e
			return e.value, true
		}
	}
	var zero V
	return zero, false
}

// Add caches v under k with the given weight, evicting the least recently
// used entries until both bounds hold, and returns the value now cached
// under k: a concurrent Add of the same key keeps the first value, so every
// caller shares one. A value heavier than the budget is returned uncached.
func (c *Cache[K, V]) Add(k K, v V, weight int) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if e.key == k {
			return e.value
		}
	}
	if weight > c.maxWeight || c.maxEntries < 1 {
		return v
	}
	for len(c.entries) >= c.maxEntries || c.weight+weight > c.maxWeight {
		last := len(c.entries) - 1
		c.weight -= c.entries[last].weight
		c.entries[last] = entry[K, V]{}
		c.entries = c.entries[:last]
	}
	c.entries = append(c.entries, entry[K, V]{})
	copy(c.entries[1:], c.entries)
	c.entries[0] = entry[K, V]{key: k, value: v, weight: weight}
	c.weight += weight
	return v
}
