// Package mesh provides the regular interconnect topologies of hyperspace
// computers: n-dimensional tori, grids, hypercubes, rings, stars and fully
// connected meshes.
//
// A Topology answers the structural questions the layers above need: how
// many nodes exist, which nodes are adjacent, where a node sits in the
// embedding space (for visualisation and heatmaps) and how far apart two
// nodes are (for analysis). Nodes are identified by dense integer IDs in
// [0, Size()).
//
// The package corresponds to the "hyperspace computer" substrate of
// Tarawneh et al. (P2S2 2017), Figure 1: transputer-style grids, NCUBE-style
// hypercubes and SpiNNaker-style tori.
package mesh

import (
	"fmt"
	"sort"
)

// NodeID identifies a single processing node within a topology. IDs are
// dense: a topology of size N uses exactly the IDs 0..N-1.
type NodeID int

// None is the sentinel value for "no node".
const None NodeID = -1

// Topology describes a regular interconnect. Implementations must be
// immutable after construction and safe for concurrent readers.
type Topology interface {
	// Name returns a short human-readable identifier such as "torus2d".
	Name() string

	// Size returns the number of nodes.
	Size() int

	// Degree returns the number of neighbours of node n.
	Degree(n NodeID) int

	// Neighbours returns the IDs adjacent to n in a deterministic order.
	// The returned slice must not be modified by the caller.
	Neighbours(n NodeID) []NodeID

	// Coords returns the position of n in the topology's embedding space.
	// The returned slice must not be modified by the caller.
	Coords(n NodeID) []int

	// Dims returns the extent of each embedding dimension. The product of
	// the extents equals Size() for lattice topologies.
	Dims() []int

	// Distance returns the minimum number of hops between two nodes.
	Distance(a, b NodeID) int
}

// Diameter returns the maximum over all node pairs of Topology.Distance.
// It runs in O(V^2) using the topology's own distance metric and is intended
// for tests and reporting, not hot paths.
func Diameter(t Topology) int {
	max := 0
	n := t.Size()
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if d := t.Distance(NodeID(a), NodeID(b)); d > max {
				max = d
			}
		}
	}
	return max
}

// Validate checks the structural invariants every topology must satisfy:
// dense IDs, symmetric adjacency, no self loops, no duplicate neighbours and
// consistent degree reporting. It returns a descriptive error on the first
// violation found.
func Validate(t Topology) error {
	size := t.Size()
	if size <= 0 {
		return fmt.Errorf("mesh: %s has non-positive size %d", t.Name(), size)
	}
	for i := 0; i < size; i++ {
		n := NodeID(i)
		nbrs := t.Neighbours(n)
		if len(nbrs) != t.Degree(n) {
			return fmt.Errorf("mesh: %s node %d degree %d != len(neighbours) %d",
				t.Name(), n, t.Degree(n), len(nbrs))
		}
		seen := make(map[NodeID]bool, len(nbrs))
		for _, m := range nbrs {
			if m == n {
				return fmt.Errorf("mesh: %s node %d has a self loop", t.Name(), n)
			}
			if m < 0 || int(m) >= size {
				return fmt.Errorf("mesh: %s node %d has out-of-range neighbour %d", t.Name(), n, m)
			}
			if seen[m] {
				return fmt.Errorf("mesh: %s node %d lists neighbour %d twice", t.Name(), n, m)
			}
			seen[m] = true
			if !contains(t.Neighbours(m), n) {
				return fmt.Errorf("mesh: %s adjacency not symmetric: %d->%d but not %d->%d",
					t.Name(), n, m, m, n)
			}
		}
	}
	return nil
}

func contains(ids []NodeID, want NodeID) bool {
	for _, id := range ids {
		if id == want {
			return true
		}
	}
	return false
}

// lattice is the shared implementation of grid and torus topologies: an
// n-dimensional box of nodes with +/-1 links along each axis, optionally
// wrapping at the boundary.
type lattice struct {
	name    string
	dims    []int
	strides []int
	wrap    bool
	size    int
	nbrs    [][]NodeID // precomputed adjacency
	coords  [][]int    // precomputed coordinates
}

func newLattice(name string, dims []int, wrap bool) (*lattice, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("mesh: %s needs at least one dimension", name)
	}
	size := 1
	for _, d := range dims {
		if d < 1 {
			return nil, fmt.Errorf("mesh: %s has invalid extent %d", name, d)
		}
		if size > 1<<24/d {
			return nil, fmt.Errorf("mesh: %s too large (> 2^24 nodes)", name)
		}
		size *= d
	}
	l := &lattice{
		name:    name,
		dims:    append([]int(nil), dims...),
		strides: make([]int, len(dims)),
		wrap:    wrap,
		size:    size,
	}
	stride := 1
	for i := range dims {
		l.strides[i] = stride
		stride *= dims[i]
	}
	l.precompute()
	return l, nil
}

func (l *lattice) precompute() {
	l.coords = make([][]int, l.size)
	l.nbrs = make([][]NodeID, l.size)
	for id := 0; id < l.size; id++ {
		c := l.coordsOf(NodeID(id))
		l.coords[id] = c
		var nbrs []NodeID
		for axis := range l.dims {
			extent := l.dims[axis]
			if extent == 1 {
				continue // no movement possible along degenerate axes
			}
			for _, delta := range []int{-1, 1} {
				nc := c[axis] + delta
				switch {
				case nc >= 0 && nc < extent:
					// interior move
				case l.wrap && extent > 2:
					// wraparound link; extent 2 would duplicate the
					// interior link, so skip wrapping there.
					nc = (nc + extent) % extent
				default:
					continue
				}
				id2 := id + (nc-c[axis])*l.strides[axis]
				if !containsID(nbrs, NodeID(id2)) {
					nbrs = append(nbrs, NodeID(id2))
				}
			}
		}
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
		l.nbrs[id] = nbrs
	}
}

func containsID(ids []NodeID, want NodeID) bool {
	for _, id := range ids {
		if id == want {
			return true
		}
	}
	return false
}

func (l *lattice) coordsOf(n NodeID) []int {
	c := make([]int, len(l.dims))
	rem := int(n)
	for i, d := range l.dims {
		c[i] = rem % d
		rem /= d
	}
	return c
}

func (l *lattice) Name() string { return l.name }
func (l *lattice) Size() int    { return l.size }

func (l *lattice) Degree(n NodeID) int { return len(l.nbrs[n]) }

func (l *lattice) Neighbours(n NodeID) []NodeID { return l.nbrs[n] }

func (l *lattice) Coords(n NodeID) []int { return l.coords[n] }

func (l *lattice) Dims() []int { return l.dims }

func (l *lattice) Distance(a, b NodeID) int {
	ca, cb := l.coords[a], l.coords[b]
	total := 0
	for i, d := range l.dims {
		diff := ca[i] - cb[i]
		if diff < 0 {
			diff = -diff
		}
		if l.wrap && d-diff < diff {
			diff = d - diff
		}
		total += diff
	}
	return total
}

// NewTorus constructs an n-dimensional torus with the given extents, e.g.
// NewTorus(14, 14) for the paper's 196-core 2D machine or NewTorus(6, 6, 6)
// for a 216-core 3D machine. Extents of 1 are permitted but contribute no
// links; extents of 2 produce a single (non-duplicated) link per axis.
func NewTorus(dims ...int) (Topology, error) {
	return newLattice(fmt.Sprintf("torus%dd", len(dims)), dims, true)
}

// NewGrid constructs an n-dimensional grid (a lattice without wraparound),
// the transputer-array configuration of paper Figure 1A.
func NewGrid(dims ...int) (Topology, error) {
	return newLattice(fmt.Sprintf("grid%dd", len(dims)), dims, false)
}

// MustTorus is NewTorus that panics on error, for tests and examples.
func MustTorus(dims ...int) Topology {
	t, err := NewTorus(dims...)
	if err != nil {
		panic(err)
	}
	return t
}

// MustGrid is NewGrid that panics on error, for tests and examples.
func MustGrid(dims ...int) Topology {
	t, err := NewGrid(dims...)
	if err != nil {
		panic(err)
	}
	return t
}
