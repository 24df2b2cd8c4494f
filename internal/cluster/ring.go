package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ringReplicas is the virtual-node count per shard on the hash ring.
// 64 vnodes keep the load spread within a few percent of uniform for small
// fleets while keeping ring rebuilds (a sort of shards×64 points) trivial.
const ringReplicas = 64

// ring is a consistent-hash ring over shard IDs: each shard owns ringReplicas
// virtual points, a key routes to the shard owning the first point at or
// after the key's hash, and spillover walks the ring to the next distinct
// shard. Adding or removing one shard moves only the key ranges adjacent to
// its points — ~1/N of placements — instead of reshuffling everything the
// way a modulo partitioner does. A ring is immutable once built; the router
// swaps whole rings on membership changes.
type ring struct {
	points []ringPoint // sorted by hash
	shards int         // distinct shard count
}

type ringPoint struct {
	hash  uint64
	shard int
}

// newRing builds a ring over the given shard IDs. An empty shard list
// yields an empty ring (sequence returns nil).
func newRing(shardIDs []int) *ring {
	r := &ring{shards: len(shardIDs)}
	for _, id := range shardIDs {
		for v := 0; v < ringReplicas; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("shard-%d/vnode-%d", id, v)), shard: id})
		}
	}
	sort.Slice(r.points, func(i, k int) bool {
		if r.points[i].hash != r.points[k].hash {
			return r.points[i].hash < r.points[k].hash
		}
		// Tie-break on shard ID so the ring is deterministic even under a
		// (vanishingly unlikely) 64-bit hash collision.
		return r.points[i].shard < r.points[k].shard
	})
	return r
}

// sequence returns every distinct shard in ring order starting from the
// key's successor point: sequence(key)[0] is the key's home shard, the rest
// is the spillover order. The slice is freshly allocated per call.
func (r *ring) sequence(key []byte) []int {
	if len(r.points) == 0 {
		return nil
	}
	h := ringHashBytes(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[int]bool, r.shards)
	seq := make([]int, 0, r.shards)
	for i := 0; i < len(r.points) && len(seq) < r.shards; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			seq = append(seq, p.shard)
		}
	}
	return seq
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

func ringHashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return mix64(h.Sum64())
}

// mix64 is a finalizing avalanche pass (splitmix64's): raw FNV-64a of the
// short, similar vnode labels ("shard-1/vnode-0", "shard-1/vnode-1", …)
// clusters on the ring badly enough to skew placement by tens of percent;
// the mixer spreads those points uniformly.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
