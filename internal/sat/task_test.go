package sat

import (
	"context"
	"math/rand"
	"testing"

	"hypersolve/internal/mapping"
	"hypersolve/internal/mesh"
	"hypersolve/internal/recursion"
	"hypersolve/internal/sched"
	"hypersolve/internal/simulator"
)

// solveOnMesh runs the distributed Listing-4 task on a simulated machine
// and returns the root outcome.
func solveOnMesh(t *testing.T, f Formula, topo mesh.Topology, mapper mapping.Factory, h Heuristic) Outcome {
	t.Helper()
	net, err := mapping.NewSkeleton(topo, 1).New(mapper, recursion.AppFactory(Task(h)), simulator.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Trigger(0, NewProblem(f)); err != nil {
		t.Fatal(err)
	}
	stats := net.RunContext(context.Background())
	if !stats.Quiescent {
		t.Fatal("distributed solve did not quiesce")
	}
	v, ok := net.App(0).(*recursion.Runtime).RootResult()
	if !ok {
		t.Fatal("no root result")
	}
	return v.(Outcome)
}

func TestDistributedMatchesSequentialVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	topo := mesh.MustTorus(5, 5)
	for i := 0; i < 12; i++ {
		f := Random3SAT(rng, 10, 38+i)
		want := Solve(f, Options{}).Status
		got := solveOnMesh(t, f, topo, mapping.NewRoundRobin(), FirstUnassigned)
		if got.Status != want {
			t.Errorf("instance %d: distributed %v != sequential %v", i, got.Status, want)
		}
		if got.Status == SAT && !Verify(f, got.Assignment) {
			t.Errorf("instance %d: distributed assignment does not verify", i)
		}
	}
}

func TestDistributedAcrossTopologiesAndMappers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := Random3SAT(rng, 12, 50)
	want := Solve(f, Options{}).Status
	topos := []mesh.Topology{
		mesh.MustTorus(4, 4),
		mesh.MustTorus(3, 3, 3),
		mesh.MustHypercube(4),
		mesh.MustFullyConnected(16),
		mesh.MustGrid(4, 4),
	}
	mappers := map[string]mapping.Factory{
		"rr":       mapping.NewRoundRobin(),
		"lbn":      mapping.NewLeastBusy(),
		"random":   mapping.NewRandom(),
		"weighted": mapping.NewWeighted(1),
	}
	for _, topo := range topos {
		for name, mf := range mappers {
			got := solveOnMesh(t, f, topo, mf, FirstUnassigned)
			if got.Status != want {
				t.Errorf("%s/%s: %v, want %v", topo.Name(), name, got.Status, want)
			}
			if got.Status == SAT && !Verify(f, got.Assignment) {
				t.Errorf("%s/%s: assignment does not verify", topo.Name(), name)
			}
		}
	}
}

func TestDistributedUNSATInstance(t *testing.T) {
	// Pigeonhole-ish: 2 pigeons 1 hole — x1, x2, and mutual exclusion is
	// too small; use a direct contradiction over 3 vars instead.
	f := Formula{NumVars: 3, Clauses: []Clause{
		{1, 2}, {1, -2}, {-1, 3}, {-1, -3},
	}}
	if SolveBruteForce(f).Status != UNSAT {
		t.Fatal("test formula should be UNSAT")
	}
	got := solveOnMesh(t, f, mesh.MustTorus(4, 4), mapping.NewLeastBusy(), FirstUnassigned)
	if got.Status != UNSAT {
		t.Errorf("distributed = %v, want UNSAT", got.Status)
	}
}

func TestDistributedUF20Instance(t *testing.T) {
	if testing.Short() {
		t.Skip("uf20 on mesh is slow in -short mode")
	}
	suite, err := GenerateSuite(SuiteParams{Count: 1, NumVars: 20, NumClauses: 91, Seed: 4, RequireSAT: true})
	if err != nil {
		t.Fatal(err)
	}
	got := solveOnMesh(t, suite[0], mesh.MustTorus(14, 14), mapping.NewLeastBusy(), FirstUnassigned)
	if got.Status != SAT {
		t.Fatalf("uf20 instance: %v, want SAT", got.Status)
	}
	if !Verify(suite[0], got.Assignment) {
		t.Error("assignment does not verify")
	}
}

func TestDistributedHeuristicsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	f := Random3SAT(rng, 10, 42)
	want := SolveBruteForce(f).Status
	for _, h := range []Heuristic{FirstUnassigned, MostFrequent, JeroslowWang, DLIS} {
		got := solveOnMesh(t, f, mesh.MustTorus(4, 4), mapping.NewRoundRobin(), h)
		if got.Status != want {
			t.Errorf("heuristic %v: %v, want %v", h, got.Status, want)
		}
	}
}

func TestTaskRejectsBadArgument(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on bad argument")
		}
	}()
	task := Task(FirstUnassigned)
	task(nil, "not a problem")
}

func TestDistributedWorkSpreads(t *testing.T) {
	// The DPLL tree of a 20-var instance must engage many nodes.
	suite, err := GenerateSuite(SuiteParams{Count: 1, NumVars: 16, NumClauses: 70, Seed: 8, RequireSAT: true})
	if err != nil {
		t.Fatal(err)
	}
	net, err := mapping.NewSkeleton(mesh.MustTorus(6, 6), 1).New(mapping.NewRoundRobin(), recursion.AppFactory(Task(FirstUnassigned)), simulator.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Trigger(0, NewProblem(suite[0])); err != nil {
		t.Fatal(err)
	}
	if stats := net.RunContext(context.Background()); !stats.Quiescent {
		t.Fatal("did not quiesce")
	}
	busy := 0
	for pid := 0; pid < net.Virtual().Size(); pid++ {
		if net.App(sched.PID(pid)).(*recursion.Runtime).FramesStarted() > 0 {
			busy++
		}
	}
	if busy < 12 {
		t.Errorf("only %d/36 nodes engaged", busy)
	}
}
