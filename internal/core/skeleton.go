package core

import (
	"reflect"

	"hypersolve/internal/lru"
	"hypersolve/internal/mapping"
	"hypersolve/internal/mesh"
)

// A machine's skeleton is what its layers derive from the topology and the
// process slots per node alone: the layer-1 adjacency index, the virtual
// topology of PIDs and each PID's neighbour positions (mapping.Skeleton).
// It is immutable, so every machine on the same (Topology, ProcsPerNode)
// shares one: New takes it from a small bounded cache and builds only the
// run state. Hits need a repeated topology value, which mesh.Parse provides
// for a repeated spec; the first machine per topology builds the skeleton
// as before and pays one lookup more.

// The cache's bounds: entries, and processes plus process-level links over
// all entries. A skeleton heavier than the budget is built and not cached.
const (
	maxCachedSkeletons = 16
	maxCachedWeight    = 1 << 16
)

type skeletonKey struct {
	topo  mesh.Topology
	procs int
}

var skeletons = lru.New[skeletonKey, *mapping.Skeleton](maxCachedSkeletons, maxCachedWeight)

// skeletonOf returns the skeleton of topo with procsPerNode slots per node
// (values below 1 meaning 1), shared through the cache. A caller-defined
// topology whose value is not comparable cannot be a key: it gets a fresh
// skeleton every time.
func skeletonOf(topo mesh.Topology, procsPerNode int) *mapping.Skeleton {
	key := skeletonKey{topo, max(procsPerNode, 1)}
	if !reflect.ValueOf(topo).Comparable() {
		return mapping.NewSkeleton(key.topo, key.procs)
	}
	if sk, ok := skeletons.Get(key); ok {
		return sk
	}
	sk := mapping.NewSkeleton(key.topo, key.procs)
	return skeletons.Add(key, sk, mesh.Weight(sk.Virtual()))
}
