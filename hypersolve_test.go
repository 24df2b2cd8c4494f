package hypersolve_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"strings"
	"testing"

	hypersolve "hypersolve"
	"hypersolve/internal/sat"
)

// These tests exercise the library exclusively through the public facade,
// the way a downstream user would.

func TestPublicAPIQuickstart(t *testing.T) {
	sum := func(f *hypersolve.Frame, arg hypersolve.Value) hypersolve.Value {
		n := arg.(int)
		if n < 1 {
			return 0
		}
		return f.CallSync(n-1).(int) + n
	}
	res, err := hypersolve.Run(hypersolve.Config{
		Topology: hypersolve.MustTorus(14, 14),
		Mapper:   hypersolve.LeastBusyMapper(),
		Task:     sum,
	}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Value.(int) != 55 {
		t.Fatalf("sum(10) = %v (ok=%v), want 55", res.Value, res.OK)
	}
}

func TestPublicAPISATPipeline(t *testing.T) {
	suite, err := hypersolve.GenerateSATSuite(hypersolve.UF20Params(5))
	if err != nil {
		t.Fatal(err)
	}
	formula := suite[0]
	res, err := hypersolve.Run(hypersolve.Config{
		Topology: hypersolve.MustTorus(8, 8),
		Mapper:   hypersolve.RoundRobinMapper(),
		Task:     hypersolve.SATTask(hypersolve.HeuristicFirst),
	}, hypersolve.NewSATProblem(formula))
	if err != nil {
		t.Fatal(err)
	}
	out := res.Value.(hypersolve.SATOutcome)
	if out.Status != hypersolve.StatusSAT {
		t.Fatalf("status = %v, want SAT (suite instances are satisfiable)", out.Status)
	}
	if !hypersolve.VerifySAT(formula, out.Assignment) {
		t.Error("assignment does not verify")
	}
	seq := hypersolve.SolveSAT(formula, hypersolve.SATOptions{Heuristic: hypersolve.HeuristicJW})
	if seq.Status != hypersolve.StatusSAT {
		t.Errorf("sequential baseline disagrees: %v", seq.Status)
	}
}

func TestPublicAPITopologyAndMapperSpecs(t *testing.T) {
	for _, spec := range []string{"torus:4x4", "torus:3x3x3", "hypercube:4", "full:16", "grid:4x4", "ring:8"} {
		topo, err := hypersolve.ParseTopology(spec)
		if err != nil {
			t.Fatalf("ParseTopology(%q): %v", spec, err)
		}
		for _, mspec := range []string{"rr", "rr-stagger", "lbn", "random", "weighted:2", "ideal"} {
			mapper, err := hypersolve.ParseMapper(mspec)
			if err != nil {
				t.Fatalf("ParseMapper(%q): %v", mspec, err)
			}
			res, err := hypersolve.Run(hypersolve.Config{
				Topology: topo,
				Mapper:   mapper,
				Task:     hypersolve.FibTask(),
			}, 8)
			if err != nil {
				t.Fatalf("%s/%s: %v", spec, mspec, err)
			}
			if !res.OK || res.Value.(int) != 21 {
				t.Errorf("%s/%s: fib(8) = %v (ok=%v), want 21", spec, mspec, res.Value, res.OK)
			}
		}
	}
}

func TestPublicAPIQueensAndKnapsack(t *testing.T) {
	res, err := hypersolve.Run(hypersolve.Config{
		Topology: hypersolve.MustTorus(5, 5),
		Mapper:   hypersolve.LeastBusyMapper(),
		Task:     hypersolve.QueensTask(2),
	}, hypersolve.QueensState{N: 6})
	if err != nil {
		t.Fatal(err)
	}
	if want := hypersolve.QueensSeq(6); !res.OK || res.Value.(int) != want {
		t.Errorf("queens(6) = %v, want %d", res.Value, want)
	}

	items := []hypersolve.KnapsackItem{
		{Weight: 4, Value: 10}, {Weight: 3, Value: 6}, {Weight: 6, Value: 11},
		{Weight: 2, Value: 5}, {Weight: 5, Value: 9},
	}
	kres, err := hypersolve.Run(hypersolve.Config{
		Topology: hypersolve.MustTorus(4, 4),
		Mapper:   hypersolve.WeightedMapper(1),
		Task:     hypersolve.KnapsackTask(1),
	}, hypersolve.NewKnapsack(items, 10))
	if err != nil {
		t.Fatal(err)
	}
	if want := hypersolve.KnapsackDP(items, 10); !kres.OK || kres.Value.(int) != want {
		t.Errorf("knapsack = %v, want %d", kres.Value, want)
	}
}

func TestPublicAPILinkExtensions(t *testing.T) {
	res, err := hypersolve.Run(hypersolve.Config{
		Topology: hypersolve.MustTorus(4, 4),
		Mapper:   hypersolve.RoundRobinMapper(),
		Task:     hypersolve.SumTask(),
		Link: hypersolve.LinkConfig{
			QueueModel:  hypersolve.LinkQueues,
			LinkLatency: 2,
			LossRate:    0.05,
			Reliable:    true,
		},
	}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Value.(int) != 78 {
		t.Fatalf("sum(12) over lossy links = %v (ok=%v), want 78", res.Value, res.OK)
	}
	if res.Stats.TotalRetransmits == 0 && res.Stats.TotalDropped > 0 {
		t.Error("drops occurred but no retransmits recorded")
	}
}

func TestPublicAPIHeatmapAndSeries(t *testing.T) {
	machine, err := hypersolve.NewMachine(hypersolve.Config{
		Topology:     hypersolve.MustTorus(6, 6),
		Mapper:       hypersolve.LeastBusyMapper(),
		Task:         hypersolve.FibTask(),
		RecordSeries: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := machine.Run(12)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.QueuedSeries) == 0 {
		t.Error("missing queued series")
	}
	hm := machine.NodeHeatmap(res)
	if hm.W != 6 || hm.H != 6 || hm.Max() == 0 {
		t.Errorf("heatmap %dx%d max %v", hm.W, hm.H, hm.Max())
	}
}

func TestPublicAPIDistributedAgreesWithSequentialOnUNSAT(t *testing.T) {
	// A small pigeonhole-style UNSAT instance: 3 pigeons, 2 holes.
	// Variables p_ij (pigeon i in hole j) laid out as 1..6.
	v := func(i, j int) hypersolve.Lit { return hypersolve.Lit(i*2 + j + 1) }
	var clauses []hypersolve.Clause
	for i := 0; i < 3; i++ {
		clauses = append(clauses, hypersolve.Clause{v(i, 0), v(i, 1)})
	}
	for j := 0; j < 2; j++ {
		for i := 0; i < 3; i++ {
			for k := i + 1; k < 3; k++ {
				clauses = append(clauses, hypersolve.Clause{-v(i, j), -v(k, j)})
			}
		}
	}
	formula := hypersolve.Formula{NumVars: 6, Clauses: clauses}
	if got := hypersolve.SolveSAT(formula, hypersolve.SATOptions{}).Status; got != hypersolve.StatusUNSAT {
		t.Fatalf("sequential: %v, want UNSAT", got)
	}
	res, err := hypersolve.Run(hypersolve.Config{
		Topology: hypersolve.MustTorus(5, 5),
		Mapper:   hypersolve.LeastBusyMapper(),
		Task:     hypersolve.SATTask(hypersolve.HeuristicDLIS),
	}, hypersolve.NewSATProblem(formula))
	if err != nil {
		t.Fatal(err)
	}
	if out := res.Value.(hypersolve.SATOutcome); out.Status != hypersolve.StatusUNSAT {
		t.Errorf("distributed: %v, want UNSAT", out.Status)
	}
}

func TestPublicAPISimplifyModes(t *testing.T) {
	// Both simplification modes must agree on verdicts.
	suite, err := hypersolve.GenerateSATSuite(sat.SuiteParams{
		Count: 2, NumVars: 12, NumClauses: 52, Seed: 9, RequireSAT: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range suite {
		want := hypersolve.SolveSAT(f, hypersolve.SATOptions{Simplify: sat.Fixpoint}).Status
		got := hypersolve.SolveSAT(f, hypersolve.SATOptions{Simplify: sat.OnePass}).Status
		if got != want {
			t.Errorf("instance %d: onepass %v != fixpoint %v", i, got, want)
		}
	}
}

// TestFacadeExports pins the facade's exported names, so that growing it is
// a deliberate diff.
func TestFacadeExports(t *testing.T) {
	// A name is added here only together with a caller in the benchmark, a
	// command, an example or a root test.
	want := strings.Fields(`
		Assignment Clause Config FibTask FileJobStoreConfig Formula Frame
		GenerateSATSuite GlobalRoundRobinMapper Heuristic HeuristicDLIS
		HeuristicFirst HeuristicFreq HeuristicJW JobDone JobStore KnapsackDP
		KnapsackItem KnapsackTask LeastBusyMapper LinkConfig LinkQueues Lit
		Machine MapperFactory MustTorus NewFullyConnected NewKnapsack
		NewMachine NewMemoryJobStore NewSATProblem NewTorus NodeQueues
		OpenFileJobStore PID ParseMapper ParseTopology QueensSeq QueensState
		QueensTask RandomMapper Result RoundRobinMapper Run RunSuite
		SATOptions SATOutcome SATTask SimulatorStats SolveSAT
		StaggeredRoundRobinMapper StatusSAT StatusUNSAT SumTask Task Topology
		UF20Params Value VerifySAT WeightedMapper`)
	f, err := parser.ParseFile(token.NewFileSet(), "hypersolve.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for name, obj := range f.Scope.Objects {
		if ast.IsExported(name) && obj.Kind != ast.Bad {
			got = append(got, name)
		}
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("exported names of hypersolve.go:\n got %v\nwant %v", got, want)
	}
}
