package experiments

import (
	"strings"
	"testing"

	"hypersolve/internal/mesh"
)

func testConfig(t *testing.T) Figure4Config {
	t.Helper()
	w, err := SmallWorkload(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	return Figure4Config{
		Workload: w,
		Series: DefaultFigure4Series(
			[]int{16, 49},
			[]int{27},
			[]int{16},
		),
		Seed: 1,
	}
}

func TestFigure4SmallSweep(t *testing.T) {
	points, err := Figure4(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	// 2 sizes x 2 2D-series + 1 x 2 3D-series + 1 full = 7 points.
	if len(points) != 7 {
		t.Fatalf("points = %d, want 7", len(points))
	}
	for _, p := range points {
		if p.MeanPerformance <= 0 {
			t.Errorf("%s/%d: non-positive performance", p.Series, p.Cores)
		}
		if p.Steps.Mean <= 0 {
			t.Errorf("%s/%d: non-positive steps", p.Series, p.Cores)
		}
		if p.SolvedSAT != p.Steps.N {
			t.Errorf("%s/%d: only %d/%d instances SAT (workload is all-SAT)",
				p.Series, p.Cores, p.SolvedSAT, p.Steps.N)
		}
	}
}

func TestFigure4Renders(t *testing.T) {
	points, err := Figure4(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	txt := RenderFigure4(points)
	for _, want := range []string{"2D Torus + RR", "3D Torus + LBN", "Fully connected", "cores"} {
		if !strings.Contains(txt, want) {
			t.Errorf("render missing %q", want)
		}
	}
	csv := Figure4CSV(points)
	if !strings.HasPrefix(csv, "series,cores,") {
		t.Error("CSV missing header")
	}
	if strings.Count(csv, "\n") != len(points)+1 {
		t.Error("CSV row count wrong")
	}
}

func TestFigure4ErrorPaths(t *testing.T) {
	if _, err := Figure4(Figure4Config{}); err == nil {
		t.Error("expected error for empty workload")
	}
	w, err := SmallWorkload(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := Figure4Config{
		Workload: w,
		Series: []Series{{
			Label:  "bad",
			Build:  mesh.SquareTorus,
			Sizes:  []int{17}, // not a perfect square
			Mapper: nil,
		}},
	}
	if _, err := Figure4(bad); err == nil {
		t.Error("expected error for non-square size")
	}
}

func TestFigure5SmallRun(t *testing.T) {
	w, err := SmallWorkload(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	results, err := Figure5(Figure5Config{Workload: w, Side: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2 (RR, LBN)", len(results))
	}
	for _, r := range results {
		if len(r.Traces) != 2 {
			t.Errorf("%s: %d traces, want 2", r.Mapper, len(r.Traces))
		}
		if r.Heatmap == nil {
			t.Errorf("%s: missing heatmap", r.Mapper)
			continue
		}
		if r.Heatmap.W != 8 || r.Heatmap.H != 8 {
			t.Errorf("%s: heatmap %dx%d, want 8x8", r.Mapper, r.Heatmap.W, r.Heatmap.H)
		}
		if r.Heatmap.Total() == 0 {
			t.Errorf("%s: empty heatmap", r.Mapper)
		}
		if r.PeakQueued <= 0 {
			t.Errorf("%s: peak queued %d", r.Mapper, r.PeakQueued)
		}
	}
}

func TestFigure5Renders(t *testing.T) {
	w, err := SmallWorkload(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	results, err := Figure5(Figure5Config{Workload: w, Side: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	txt := RenderFigure5(results)
	for _, want := range []string{"Round Robin", "Least Busy Neighbour", "heatmap", "queued"} {
		if !strings.Contains(txt, want) {
			t.Errorf("render missing %q", want)
		}
	}
	csv := Figure5CSV(results)
	if !strings.HasPrefix(csv, "mapper,problem,step,queued\n") {
		t.Error("CSV header wrong")
	}
}

func TestFigure5Validation(t *testing.T) {
	if _, err := Figure5(Figure5Config{}); err == nil {
		t.Error("expected error for empty workload")
	}
}

func TestDefaultWorkloadShape(t *testing.T) {
	w, err := DefaultWorkload(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Problems) != 20 {
		t.Fatalf("problems = %d, want 20", len(w.Problems))
	}
	for i, f := range w.Problems {
		if f.NumVars != 50 || len(f.Clauses) != 218 {
			t.Errorf("instance %d: %d vars %d clauses", i, f.NumVars, len(f.Clauses))
		}
	}
}

func TestDefaultFigure4ConfigBuilds(t *testing.T) {
	cfg, err := DefaultFigure4Config(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Series) != 5 {
		t.Fatalf("series = %d, want 5", len(cfg.Series))
	}
	// Every size must be constructible.
	for _, s := range cfg.Series {
		for _, cores := range s.Sizes {
			topo, err := s.Build(cores)
			if err != nil {
				t.Errorf("%s/%d: %v", s.Label, cores, err)
				continue
			}
			if topo.Size() != cores {
				t.Errorf("%s/%d: built %d cores", s.Label, cores, topo.Size())
			}
		}
	}
}
