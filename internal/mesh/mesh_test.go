package mesh

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestTorus2DBasics(t *testing.T) {
	topo := MustTorus(4, 4)
	if got := topo.Size(); got != 16 {
		t.Fatalf("Size = %d, want 16", got)
	}
	if got := topo.Name(); got != "torus2d" {
		t.Fatalf("Name = %q, want torus2d", got)
	}
	for n := 0; n < topo.Size(); n++ {
		if d := topo.Degree(NodeID(n)); d != 4 {
			t.Errorf("node %d degree = %d, want 4", n, d)
		}
	}
	if err := Validate(topo); err != nil {
		t.Fatal(err)
	}
}

func TestTorus2DNeighboursWrap(t *testing.T) {
	topo := MustTorus(4, 4)
	// Node 0 is at (0,0); neighbours are (1,0)=1, (3,0)=3, (0,1)=4, (0,3)=12.
	got := topo.Neighbours(0)
	want := []NodeID{1, 3, 4, 12}
	if len(got) != len(want) {
		t.Fatalf("Neighbours(0) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbours(0) = %v, want %v", got, want)
		}
	}
}

func TestTorus3DDegree(t *testing.T) {
	topo := MustTorus(3, 3, 3)
	if topo.Size() != 27 {
		t.Fatalf("Size = %d, want 27", topo.Size())
	}
	for n := 0; n < topo.Size(); n++ {
		if d := topo.Degree(NodeID(n)); d != 6 {
			t.Errorf("node %d degree = %d, want 6", n, d)
		}
	}
	if err := Validate(topo); err != nil {
		t.Fatal(err)
	}
}

func TestTorusExtentTwoNoDuplicateLinks(t *testing.T) {
	// With extent 2, +1 and -1 moves land on the same node; the wraparound
	// must not create a duplicate link.
	topo := MustTorus(2, 2)
	for n := 0; n < topo.Size(); n++ {
		if d := topo.Degree(NodeID(n)); d != 2 {
			t.Errorf("node %d degree = %d, want 2", n, d)
		}
	}
	if err := Validate(topo); err != nil {
		t.Fatal(err)
	}
}

func TestTorusExtentOneDegenerateAxis(t *testing.T) {
	topo := MustTorus(1, 5)
	if topo.Size() != 5 {
		t.Fatalf("Size = %d, want 5", topo.Size())
	}
	if err := Validate(topo); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < topo.Size(); n++ {
		if d := topo.Degree(NodeID(n)); d != 2 {
			t.Errorf("node %d degree = %d, want 2 (ring along second axis)", n, d)
		}
	}
}

func TestGridCornersAndEdges(t *testing.T) {
	topo := MustGrid(3, 3)
	if err := Validate(topo); err != nil {
		t.Fatal(err)
	}
	wantDegrees := map[int]int{
		0: 2, 2: 2, 6: 2, 8: 2, // corners
		1: 3, 3: 3, 5: 3, 7: 3, // edges
		4: 4, // centre
	}
	for n, want := range wantDegrees {
		if got := topo.Degree(NodeID(n)); got != want {
			t.Errorf("grid node %d degree = %d, want %d", n, got, want)
		}
	}
}

func TestGridDistanceIsManhattan(t *testing.T) {
	topo := MustGrid(5, 5)
	if got := topo.Distance(0, 24); got != 8 {
		t.Errorf("Distance(corner, corner) = %d, want 8", got)
	}
	if got := topo.Distance(0, 0); got != 0 {
		t.Errorf("Distance(0,0) = %d, want 0", got)
	}
}

func TestTorusDistanceWraps(t *testing.T) {
	topo := MustTorus(6, 6)
	// (0,0) to (5,0): 1 hop via wraparound, not 5.
	if got := topo.Distance(0, 5); got != 1 {
		t.Errorf("Distance(0,5) = %d, want 1", got)
	}
	// (0,0) to (3,3): 3+3 = 6 (exactly half in both axes).
	target := NodeID(3 + 3*6)
	if got := topo.Distance(0, target); got != 6 {
		t.Errorf("Distance(0,%d) = %d, want 6", target, got)
	}
}

func TestTorusDiameter(t *testing.T) {
	// Diameter of a k x k torus is 2*floor(k/2).
	cases := []struct{ k, want int }{{3, 2}, {4, 4}, {5, 4}, {6, 6}}
	for _, c := range cases {
		topo := MustTorus(c.k, c.k)
		if got := Diameter(topo); got != c.want {
			t.Errorf("diameter of %dx%d torus = %d, want %d", c.k, c.k, got, c.want)
		}
	}
}

func TestHypercubeBasics(t *testing.T) {
	topo := MustHypercube(4)
	if topo.Size() != 16 {
		t.Fatalf("Size = %d, want 16", topo.Size())
	}
	if err := Validate(topo); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < topo.Size(); n++ {
		if d := topo.Degree(NodeID(n)); d != 4 {
			t.Errorf("node %d degree = %d, want 4", n, d)
		}
	}
	if got := Diameter(topo); got != 4 {
		t.Errorf("Diameter = %d, want 4", got)
	}
}

func TestHypercubeDistanceIsHamming(t *testing.T) {
	topo := MustHypercube(5)
	if got := topo.Distance(0b00000, 0b10101); got != 3 {
		t.Errorf("Distance = %d, want 3", got)
	}
}

func TestHypercubeDim0(t *testing.T) {
	topo := MustHypercube(0)
	if topo.Size() != 1 {
		t.Fatalf("Size = %d, want 1", topo.Size())
	}
	if topo.Degree(0) != 0 {
		t.Fatalf("Degree = %d, want 0", topo.Degree(0))
	}
}

func TestFullyConnected(t *testing.T) {
	topo := MustFullyConnected(10)
	if err := Validate(topo); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 10; n++ {
		if d := topo.Degree(NodeID(n)); d != 9 {
			t.Errorf("node %d degree = %d, want 9", n, d)
		}
	}
	if got := Diameter(topo); got != 1 {
		t.Errorf("Diameter = %d, want 1", got)
	}
}

func TestFullyConnectedSizeOne(t *testing.T) {
	topo := MustFullyConnected(1)
	if topo.Degree(0) != 0 {
		t.Fatalf("Degree = %d, want 0", topo.Degree(0))
	}
	if err := Validate(topo); err != nil {
		t.Fatal(err)
	}
}

func TestRing(t *testing.T) {
	topo := MustRing(8)
	if err := Validate(topo); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 8; n++ {
		if d := topo.Degree(NodeID(n)); d != 2 {
			t.Errorf("node %d degree = %d, want 2", n, d)
		}
	}
	if got := Diameter(topo); got != 4 {
		t.Errorf("Diameter = %d, want 4", got)
	}
}

func TestStar(t *testing.T) {
	topo := MustStar(9)
	if err := Validate(topo); err != nil {
		t.Fatal(err)
	}
	if d := topo.Degree(0); d != 8 {
		t.Errorf("hub degree = %d, want 8", d)
	}
	for n := 1; n < 9; n++ {
		if d := topo.Degree(NodeID(n)); d != 1 {
			t.Errorf("leaf %d degree = %d, want 1", n, d)
		}
	}
	if got := topo.Distance(3, 7); got != 2 {
		t.Errorf("leaf-leaf distance = %d, want 2", got)
	}
	if got := Diameter(topo); got != 2 {
		t.Errorf("Diameter = %d, want 2", got)
	}
}

func TestConstructorErrors(t *testing.T) {
	cases := []func() (Topology, error){
		func() (Topology, error) { return NewTorus() },
		func() (Topology, error) { return NewTorus(0, 4) },
		func() (Topology, error) { return NewGrid(-1) },
		func() (Topology, error) { return NewHypercube(-1) },
		func() (Topology, error) { return NewHypercube(30) },
		func() (Topology, error) { return NewFullyConnected(0) },
		func() (Topology, error) { return NewRing(2) },
		func() (Topology, error) { return NewStar(1) },
	}
	for i, f := range cases {
		if _, err := f(); err == nil {
			t.Errorf("case %d: expected constructor error, got nil", i)
		}
	}
}

func TestParseSpecs(t *testing.T) {
	cases := []struct {
		spec string
		size int
		name string
	}{
		{"torus:14x14", 196, "torus2d"},
		{"torus:6x6x6", 216, "torus3d"},
		{"grid:8x8", 64, "grid2d"},
		{"hypercube:7", 128, "hypercube7"},
		{"full:100", 100, "full"},
		{"ring:64", 64, "ring"},
		{"star:32", 32, "star"},
	}
	for _, c := range cases {
		topo, err := Parse(c.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.spec, err)
			continue
		}
		if topo.Size() != c.size {
			t.Errorf("Parse(%q).Size() = %d, want %d", c.spec, topo.Size(), c.size)
		}
		if topo.Name() != c.name {
			t.Errorf("Parse(%q).Name() = %q, want %q", c.spec, topo.Name(), c.name)
		}
		built := int64(0)
		for n := 0; n < topo.Size(); n++ {
			built += int64(topo.Degree(NodeID(n)))
		}
		nodes, links, err := Extent(c.spec)
		if err != nil || nodes != int64(c.size) || links < built || links > 2*built {
			t.Errorf("Extent(%q) = %d nodes, %d links, %v; built %d nodes, %d links", c.spec, nodes, links, err, c.size, built)
		}
	}
}

// TestParseSharesOneValue pins Parse's cache: a repeated spec returns the
// very value of the first call, equal to a fresh build, and a topology
// heavier than the whole budget is built anew every time.
func TestParseSharesOneValue(t *testing.T) {
	for spec, fresh := range map[string]Topology{
		"torus:14x14": MustTorus(14, 14), "hypercube:8": MustHypercube(8), "ring:9": MustRing(9),
	} {
		a, b := MustParse(spec), MustParse(spec)
		if a != b {
			t.Errorf("%s: two Parse calls returned distinct values", spec)
		}
		if !reflect.DeepEqual(a, fresh) {
			t.Errorf("%s: the cached topology differs from a fresh build", spec)
		}
	}
	heavy := "torus:150x150" // 22 500 nodes and 90 000 links
	if w := Weight(MustParse(heavy)); w <= maxParsedWeight {
		t.Fatalf("%s weighs %d, want it over the budget of %d", heavy, w, maxParsedWeight)
	}
	if MustParse(heavy) == MustParse(heavy) {
		t.Errorf("%s is over the budget but was cached", heavy)
	}
}

// Extent must size what Parse could never build, in no time and no memory.
func TestExtentOfHugeSpecs(t *testing.T) {
	for spec, want := range map[string]int64{
		"torus:100000x100000":                    1e10,
		"star:1000000000":                        1e9,
		"full:16384":                             16384,
		"hypercube:40":                           1 << 40,
		"torus:4294967296x4294967296x4294967296": 1 << 62, // saturated
		"ring:-5":                                0,
	} {
		if nodes, _, err := Extent(spec); err != nil || nodes != want {
			t.Errorf("Extent(%q) = %d nodes, %v; want %d", spec, nodes, err, want)
		}
	}
	if _, links, _ := Extent("full:16384"); links != 16384*16383 {
		t.Errorf("full:16384 has %d links, want %d", links, 16384*16383)
	}
	if _, _, err := Extent("blob:4"); err == nil {
		t.Error("Extent accepted an unknown kind")
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"", "torus", "torus:", "torus:axb", "hypercube:x", "full:abc",
		"ring:zz", "star:?", "blob:4", "grid:3x-1",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): expected error, got nil", spec)
		}
	}
}

func TestSquareAndCubeHelpers(t *testing.T) {
	if _, err := SquareTorus(196); err != nil {
		t.Errorf("SquareTorus(196): %v", err)
	}
	if _, err := SquareTorus(17); err == nil {
		t.Error("SquareTorus(17): expected error")
	}
	if _, err := CubeTorus(216); err != nil {
		t.Errorf("CubeTorus(216): %v", err)
	}
	if _, err := CubeTorus(100); err == nil {
		t.Error("CubeTorus(100): expected error")
	}
}

func TestIntRootExactness(t *testing.T) {
	for k := 1; k <= 101; k++ {
		if got := intRoot(k*k, 2); got != k {
			t.Errorf("intRoot(%d,2) = %d, want %d", k*k, got, k)
		}
		if got := intRoot(k*k*k, 3); got != k {
			t.Errorf("intRoot(%d,3) = %d, want %d", k*k*k, got, k)
		}
	}
}

// --- Property-based tests -------------------------------------------------

// allTopologies yields a representative sample used by the property tests.
func allTopologies() []Topology {
	return []Topology{
		MustTorus(4, 4),
		MustTorus(5, 3),
		MustTorus(3, 3, 3),
		MustTorus(2, 4, 3),
		MustGrid(6, 4),
		MustGrid(2, 2, 2),
		MustHypercube(5),
		MustFullyConnected(12),
		MustRing(9),
		MustStar(7),
	}
}

func TestPropertyAllTopologiesValidate(t *testing.T) {
	for _, topo := range allTopologies() {
		if err := Validate(topo); err != nil {
			t.Errorf("%s: %v", topo.Name(), err)
		}
	}
}

func TestPropertyDistanceMetricAxioms(t *testing.T) {
	for _, topo := range allTopologies() {
		size := topo.Size()
		f := func(a, b, c uint16) bool {
			x := NodeID(int(a) % size)
			y := NodeID(int(b) % size)
			z := NodeID(int(c) % size)
			dxy := topo.Distance(x, y)
			// identity, symmetry, triangle inequality
			if topo.Distance(x, x) != 0 {
				return false
			}
			if dxy != topo.Distance(y, x) {
				return false
			}
			if x != y && dxy == 0 {
				return false
			}
			return dxy <= topo.Distance(x, z)+topo.Distance(z, y)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: distance axioms violated: %v", topo.Name(), err)
		}
	}
}

func TestPropertyNeighboursAreDistanceOne(t *testing.T) {
	for _, topo := range allTopologies() {
		for n := 0; n < topo.Size(); n++ {
			for _, m := range topo.Neighbours(NodeID(n)) {
				if d := topo.Distance(NodeID(n), m); d != 1 {
					t.Errorf("%s: neighbour pair (%d,%d) distance %d, want 1",
						topo.Name(), n, m, d)
				}
			}
		}
	}
}

func TestPropertyCoordsRoundTrip(t *testing.T) {
	// For lattice topologies, coordinates must uniquely identify nodes and
	// fall within the declared dims.
	for _, topo := range allTopologies() {
		dims := topo.Dims()
		seen := make(map[string]bool)
		for n := 0; n < topo.Size(); n++ {
			c := topo.Coords(NodeID(n))
			if len(c) != len(dims) {
				t.Fatalf("%s: Coords len %d != Dims len %d", topo.Name(), len(c), len(dims))
			}
			key := ""
			for i, v := range c {
				if v < 0 || v >= dims[i] {
					t.Fatalf("%s: node %d coord %d out of range [0,%d)", topo.Name(), n, v, dims[i])
				}
				key += string(rune('A'+i)) + itoa(v) + ","
			}
			if seen[key] {
				t.Fatalf("%s: duplicate coords %v", topo.Name(), c)
			}
			seen[key] = true
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf []byte
	for v > 0 {
		buf = append([]byte{byte('0' + v%10)}, buf...)
		v /= 10
	}
	return string(buf)
}

func TestPropertyTorusIsNodeSymmetric(t *testing.T) {
	// Every node of a torus has identical degree (node symmetry, one of the
	// hypercube/torus properties the paper credits for software simplicity).
	for _, topo := range []Topology{MustTorus(5, 5), MustTorus(4, 4, 4), MustHypercube(6)} {
		want := topo.Degree(0)
		for n := 1; n < topo.Size(); n++ {
			if got := topo.Degree(NodeID(n)); got != want {
				t.Errorf("%s: node %d degree %d != node 0 degree %d", topo.Name(), n, got, want)
			}
		}
	}
}

// The reflected Gray code walks a hypercube along its edges, embedding a
// ring (and so any 1D pipeline) in it: one of the embedding properties the
// paper highlights in Section II-A.
func TestGrayRingIsHamiltonianCycle(t *testing.T) {
	for dim := 1; dim <= 8; dim++ {
		topo := MustHypercube(dim)
		gray := func(i int) NodeID {
			i %= topo.Size()
			return NodeID(i ^ i>>1)
		}
		seen := make(map[NodeID]bool)
		for i := 0; i < topo.Size(); i++ {
			n := gray(i)
			if seen[n] {
				t.Fatalf("dim %d: ring revisits node %d", dim, n)
			}
			seen[n] = true
			if next := gray(i + 1); topo.Distance(n, next) != 1 {
				t.Fatalf("dim %d: ring step %d->%d is not an edge", dim, n, next)
			}
		}
	}
}

func TestPropertyConnectivityByFlood(t *testing.T) {
	// Every topology must be connected: BFS from node 0 reaches all nodes,
	// and the BFS depth equals Distance for lattice topologies.
	for _, topo := range allTopologies() {
		dist := bfs(topo, 0)
		for n, d := range dist {
			if d < 0 {
				t.Fatalf("%s: node %d unreachable from 0", topo.Name(), n)
			}
			if want := topo.Distance(0, NodeID(n)); want != d {
				t.Errorf("%s: Distance(0,%d) = %d but BFS depth = %d", topo.Name(), n, want, d)
			}
		}
	}
}

func bfs(t Topology, start NodeID) []int {
	dist := make([]int, t.Size())
	for i := range dist {
		dist[i] = -1
	}
	dist[start] = 0
	queue := []NodeID{start}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, m := range t.Neighbours(n) {
			if dist[m] < 0 {
				dist[m] = dist[n] + 1
				queue = append(queue, m)
			}
		}
	}
	return dist
}
