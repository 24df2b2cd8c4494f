package mesh

import (
	"fmt"
	"math/bits"
)

// hypercube is the n-dimensional binary cube of paper Figure 1B (NCUBE
// style): 2^n nodes, each adjacent to the n nodes whose addresses differ in
// exactly one bit. Node IDs double as binary addresses.
type hypercube struct {
	n    int // dimension
	size int
	nbrs [][]NodeID
}

// NewHypercube constructs a hypercube of the given dimension (2^dim nodes).
// Dimension 0 is a single isolated node.
func NewHypercube(dim int) (Topology, error) {
	if dim < 0 || dim > 24 {
		return nil, fmt.Errorf("mesh: hypercube dimension %d out of range [0,24]", dim)
	}
	h := &hypercube{n: dim, size: 1 << dim}
	h.nbrs = make([][]NodeID, h.size)
	for id := 0; id < h.size; id++ {
		nbrs := make([]NodeID, dim)
		for b := 0; b < dim; b++ {
			nbrs[b] = NodeID(id ^ (1 << b))
		}
		h.nbrs[id] = nbrs
	}
	return h, nil
}

// MustHypercube is NewHypercube that panics on error.
func MustHypercube(dim int) Topology {
	t, err := NewHypercube(dim)
	if err != nil {
		panic(err)
	}
	return t
}

func (h *hypercube) Name() string { return fmt.Sprintf("hypercube%d", h.n) }
func (h *hypercube) Size() int    { return h.size }

func (h *hypercube) Degree(n NodeID) int { return h.n }

func (h *hypercube) Neighbours(n NodeID) []NodeID { return h.nbrs[n] }

// Coords returns the bit vector of the node address, one coordinate per
// dimension, least significant bit first.
func (h *hypercube) Coords(n NodeID) []int {
	c := make([]int, h.n)
	for b := 0; b < h.n; b++ {
		c[b] = (int(n) >> b) & 1
	}
	return c
}

func (h *hypercube) Dims() []int {
	d := make([]int, h.n)
	for i := range d {
		d[i] = 2
	}
	return d
}

// Distance is the Hamming distance between the two addresses.
func (h *hypercube) Distance(a, b NodeID) int {
	return bits.OnesCount32(uint32(a) ^ uint32(b))
}
