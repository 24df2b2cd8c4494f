package metrics

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestSeriesBasics(t *testing.T) {
	s := Series{1, 5, 3, 5, 0}
	if s.Max() != 5 {
		t.Errorf("Max = %d", s.Max())
	}
	var empty Series
	if empty.Max() != 0 {
		t.Error("empty series Max wrong")
	}
}

func TestDownsample(t *testing.T) {
	s := make(Series, 100)
	for i := range s {
		s[i] = i
	}
	d := s.Downsample(10)
	if len(d) != 10 {
		t.Fatalf("len = %d, want 10", len(d))
	}
	for i := 1; i < len(d); i++ {
		if d[i] <= d[i-1] {
			t.Errorf("downsampled increasing series is not increasing: %v", d)
		}
	}
	// No-op cases.
	if got := s.Downsample(0); len(got) != 100 {
		t.Error("Downsample(0) should copy")
	}
	if got := s.Downsample(200); len(got) != 100 {
		t.Error("Downsample larger than series should copy")
	}
}

func TestPropertyDownsamplePreservesBounds(t *testing.T) {
	f := func(raw []uint8, w uint8) bool {
		s := make(Series, len(raw))
		for i, v := range raw {
			s[i] = int(v)
		}
		d := s.Downsample(int(w%50) + 1)
		if len(s) == 0 {
			return len(d) == 0
		}
		return d.Max() <= s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Errorf("N=%d Mean=%v", s.N, s.Mean)
	}
	if math.Abs(s.Std-2.138) > 0.01 {
		t.Errorf("Std = %v", s.Std)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min=%v Max=%v", s.Min, s.Max)
	}
	if s.Median != 4.5 {
		t.Errorf("Median = %v", s.Median)
	}
	if s.GeometricMean <= 0 || s.GeometricMean >= s.Mean {
		t.Errorf("GeometricMean = %v (AM-GM violated?)", s.GeometricMean)
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.Mean != 0 {
		t.Error("empty summary wrong")
	}
	odd := Summarize([]float64{3, 1, 2})
	if odd.Median != 2 {
		t.Errorf("odd median = %v", odd.Median)
	}
}

func TestPropertySummaryInvariants(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v) + 1 // strictly positive
		}
		s := Summarize(xs)
		if s.Min > s.Median || s.Median > s.Max {
			return false
		}
		if s.Mean < s.Min || s.Mean > s.Max {
			return false
		}
		// AM >= GM for positive samples.
		return s.GeometricMean <= s.Mean+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHeatmap(t *testing.T) {
	h := NewHeatmap(3, 2)
	h.Add(0, 0, 1)
	h.Add(2, 1, 5)
	h.Add(2, 1, 5)
	h.Add(99, 99, 100) // out of range: ignored
	if h.At(2, 1) != 10 {
		t.Errorf("At(2,1) = %v", h.At(2, 1))
	}
	if h.Max() != 10 {
		t.Errorf("Max = %v", h.Max())
	}
	if !slices.Equal(h.Cells, []float64{1, 0, 0, 0, 0, 10}) {
		t.Errorf("Cells = %v", h.Cells)
	}
	out := h.Render()
	if lines := strings.Count(out, "\n"); lines != 2 {
		t.Errorf("Render has %d lines, want 2", lines)
	}
	if !strings.ContainsRune(out, '@') {
		t.Error("Render missing full-intensity glyph")
	}
}

func TestHeatmapImbalance(t *testing.T) {
	even := NewHeatmap(2, 2)
	for x := 0; x < 2; x++ {
		for y := 0; y < 2; y++ {
			even.Add(x, y, 4)
		}
	}
	if cv := even.ImbalanceCV(); cv != 0 {
		t.Errorf("even CV = %v, want 0", cv)
	}
	skew := NewHeatmap(2, 2)
	skew.Add(0, 0, 16)
	if cv := skew.ImbalanceCV(); cv <= 1 {
		t.Errorf("skew CV = %v, want > 1", cv)
	}
	var zero Heatmap
	zero.W, zero.H = 1, 1
	zero.Cells = []float64{0}
	if cv := zero.ImbalanceCV(); cv != 0 {
		t.Errorf("zero CV = %v", cv)
	}
}

func TestAsciiPlot(t *testing.T) {
	s := Series{0, 10, 20, 30, 20, 10, 0}
	out := AsciiPlot(s, 20, 8)
	if !strings.Contains(out, "*") {
		t.Error("plot missing data points")
	}
	if !strings.Contains(out, "30") {
		t.Error("plot missing max annotation")
	}
	if AsciiPlot(nil, 10, 5) == "" {
		t.Error("empty plot should explain itself")
	}
}

func TestHeatmapJSONRoundTrip(t *testing.T) {
	h := NewHeatmap(3, 2)
	h.Add(0, 0, 1.5)
	h.Add(2, 1, 4)
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"w":3,"h":2,"cells":[1.5,0,0,0,0,4]}`
	if string(data) != want {
		t.Errorf("marshal = %s, want %s", data, want)
	}
	var back Heatmap
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, h) {
		t.Errorf("round trip = %+v, want %+v", back, *h)
	}
}

func TestHeatmapJSONValidation(t *testing.T) {
	var h Heatmap
	for _, src := range []string{
		`{"w":2,"h":2,"cells":[1]}`,  // cell count mismatch
		`{"w":-1,"h":2,"cells":[]}`,  // negative dimension
		`{"w":"x","h":2,"cells":[]}`, // wrong type
	} {
		if err := json.Unmarshal([]byte(src), &h); err == nil {
			t.Errorf("Unmarshal(%s) accepted, want error", src)
		}
	}
	// A nil cell array is an all-zero grid.
	if err := json.Unmarshal([]byte(`{"w":2,"h":1}`), &h); err != nil {
		t.Fatal(err)
	}
	if h.W != 2 || h.H != 1 || len(h.Cells) != 2 {
		t.Errorf("nil-cells heatmap = %+v", h)
	}
}

func TestSeriesJSON(t *testing.T) {
	s := Series{3, 1, 4}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "[3,1,4]" {
		t.Errorf("series marshal = %s", data)
	}
	var back Series
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Errorf("series round trip = %v", back)
	}
}
