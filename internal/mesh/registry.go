package mesh

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// parseSpec splits a spec into its kind and its numeric arguments: the
// extents of a torus or grid, otherwise the one dimension or size.
func parseSpec(spec string) (kind string, args []int, err error) {
	kind, arg, ok := strings.Cut(spec, ":")
	if !ok {
		return "", nil, fmt.Errorf("mesh: spec %q missing ':' separator", spec)
	}
	what := "size"
	parts := []string{arg}
	switch kind {
	case "torus", "grid":
		what, parts = "extent", strings.Split(arg, "x")
	case "hypercube":
		what = "dimension"
	case "full", "ring", "star":
	default:
		return "", nil, fmt.Errorf("mesh: unknown topology kind %q (want torus|grid|hypercube|full|ring|star)", kind)
	}
	for _, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil {
			return "", nil, fmt.Errorf("mesh: spec %q has bad %s %q", spec, what, p)
		}
		args = append(args, n)
	}
	return kind, args, nil
}

// Parse builds the topology described by a spec string, so that
// command-line tools and experiment configs can name machines uniformly:
//
//	torus:14x14        2D torus, 196 cores
//	torus:6x6x6        3D torus, 216 cores
//	grid:8x8           2D grid without wraparound
//	hypercube:7        128-core hypercube
//	full:256           fully connected, 256 cores
//	ring:64            64-core ring
//	star:32            hub-and-spoke, 32 cores
func Parse(spec string) (Topology, error) {
	kind, args, err := parseSpec(spec)
	if err != nil {
		return nil, err
	}
	switch kind {
	case "torus":
		return NewTorus(args...)
	case "grid":
		return NewGrid(args...)
	case "hypercube":
		return NewHypercube(args[0])
	case "full":
		return NewFullyConnected(args[0])
	case "ring":
		return NewRing(args[0])
	default:
		return NewStar(args[0])
	}
}

// Extent reports how many nodes the topology a spec describes would have,
// and an upper bound on its directed links, without building it: Parse
// precomputes every neighbour list, so whoever accepts specs from outside
// sizes them here first. Counts saturate at 1<<62; a spec whose arguments
// are out of range reports zero and is left for Parse to reject.
func Extent(spec string) (nodes, links int64, err error) {
	kind, args, err := parseSpec(spec)
	if err != nil {
		return 0, 0, err
	}
	n := int64(args[0])
	switch kind {
	case "torus", "grid":
		nodes = 1
		for _, d := range args {
			nodes = mulSat(nodes, int64(d))
		}
		return nodes, mulSat(nodes, int64(2*len(args))), nil
	case "hypercube":
		if n < 0 || n > 62 {
			return 0, 0, nil
		}
		return 1 << n, mulSat(1<<n, n), nil
	case "full":
		return max(n, 0), mulSat(n, n-1), nil
	default: // ring, star
		return max(n, 0), mulSat(n, 2), nil
	}
}

// mulSat multiplies two counts, saturating at 1<<62; a negative factor
// gives zero.
func mulSat(a, b int64) int64 {
	const limit = 1 << 62
	if a <= 0 || b <= 0 {
		return 0
	}
	if a > limit/b {
		return limit
	}
	return a * b
}

// MustParse is Parse that panics on error, for tests and examples.
func MustParse(spec string) Topology {
	t, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return t
}

// SquareTorus returns the 2D torus whose side is the integer square root of
// cores, i.e. the largest k with k*k <= cores. The paper's 2D series uses
// square machines (e.g. 196 cores = 14x14).
func SquareTorus(cores int) (Topology, error) {
	k := intRoot(cores, 2)
	if k*k != cores {
		return nil, fmt.Errorf("mesh: %d is not a perfect square", cores)
	}
	return NewTorus(k, k)
}

// CubeTorus returns the 3D torus with side = cube root of cores.
func CubeTorus(cores int) (Topology, error) {
	k := intRoot(cores, 3)
	if k*k*k != cores {
		return nil, fmt.Errorf("mesh: %d is not a perfect cube", cores)
	}
	return NewTorus(k, k, k)
}

// intRoot returns floor(cores^(1/deg)) computed robustly against floating
// point error.
func intRoot(cores, deg int) int {
	if cores <= 0 {
		return 0
	}
	k := int(math.Round(math.Pow(float64(cores), 1/float64(deg))))
	for pow(k, deg) > cores {
		k--
	}
	for pow(k+1, deg) <= cores {
		k++
	}
	return k
}

func pow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}
