// Package metrics holds the measurement types of the paper's evaluation
// (Section V-C): computation time, interconnect activity (total queued
// messages versus time) and node activity (total messages delivered per
// node). These are result-payload types, not a monitoring system — Series
// and Heatmap are embedded in solve results and travel the HTTP API as the
// job-result JSON wire format, with summary statistics and text renderings
// (ASCII plots, heatmap shading) layered on top for terminal
// and report output. Operational telemetry — counters, gauges and
// histograms scraped from /metrics — lives in internal/telemetry.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Series is a time series of per-step measurements (e.g. queued messages).
type Series []int

// Max returns the largest value, or 0 for an empty series.
func (s Series) Max() int {
	max := 0
	for _, v := range s {
		if v > max {
			max = v
		}
	}
	return max
}

// Downsample reduces the series to at most buckets points by averaging
// windows; used to fit long traces into terminal plots.
func (s Series) Downsample(buckets int) Series {
	if buckets <= 0 || len(s) <= buckets {
		return append(Series(nil), s...)
	}
	out := make(Series, buckets)
	for b := 0; b < buckets; b++ {
		lo := b * len(s) / buckets
		hi := (b + 1) * len(s) / buckets
		if hi == lo {
			hi = lo + 1
		}
		sum := 0
		for _, v := range s[lo:hi] {
			sum += v
		}
		out[b] = sum / (hi - lo)
	}
	return out
}

// Summary holds the distribution statistics reported for experiment runs.
type Summary struct {
	N             int
	Mean, Std     float64
	Min, Max      float64
	Median        float64
	GeometricMean float64
}

// Summarize computes summary statistics of a sample.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	if n := len(sorted); n%2 == 1 {
		s.Median = sorted[n/2]
	} else {
		s.Median = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	var sum, logSum float64
	logOK := true
	for _, x := range xs {
		sum += x
		if x > 0 {
			logSum += math.Log(x)
		} else {
			logOK = false
		}
	}
	s.Mean = sum / float64(len(xs))
	if logOK {
		s.GeometricMean = math.Exp(logSum / float64(len(xs)))
	}
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		sq += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(sq / float64(len(xs)-1))
	}
	return s
}

// Heatmap is a 2D grid of accumulated per-node counts, the paper's node
// activity visualisation (Figure 5, bottom row).
type Heatmap struct {
	W, H  int
	Cells []float64 // row-major: Cells[y*W+x]
}

// NewHeatmap allocates a zeroed W x H heatmap.
func NewHeatmap(w, h int) *Heatmap {
	return &Heatmap{W: w, H: h, Cells: make([]float64, w*h)}
}

// Add accumulates a count at (x, y).
func (h *Heatmap) Add(x, y int, v float64) {
	if x < 0 || x >= h.W || y < 0 || y >= h.H {
		return
	}
	h.Cells[y*h.W+x] += v
}

// At returns the value at (x, y).
func (h *Heatmap) At(x, y int) float64 { return h.Cells[y*h.W+x] }

// Max returns the largest cell value.
func (h *Heatmap) Max() float64 {
	max := 0.0
	for _, v := range h.Cells {
		if v > max {
			max = v
		}
	}
	return max
}

// Total returns the sum of all cells.
func (h *Heatmap) Total() float64 {
	var t float64
	for _, v := range h.Cells {
		t += v
	}
	return t
}

// ImbalanceCV returns the coefficient of variation (std/mean) across cells:
// a scalar measure of spatial load imbalance (0 = perfectly even).
func (h *Heatmap) ImbalanceCV() float64 {
	xs := make([]float64, len(h.Cells))
	copy(xs, h.Cells)
	s := Summarize(xs)
	if s.Mean == 0 {
		return 0
	}
	return s.Std / s.Mean
}

// heatmapJSON is the stable wire format of a Heatmap: dimensions plus the
// row-major cell grid, as served by the solve service's result payloads.
type heatmapJSON struct {
	W     int       `json:"w"`
	H     int       `json:"h"`
	Cells []float64 `json:"cells"`
}

// MarshalJSON serialises the heatmap as {"w":…,"h":…,"cells":[…]} with
// row-major cells.
func (h *Heatmap) MarshalJSON() ([]byte, error) {
	return json.Marshal(heatmapJSON{W: h.W, H: h.H, Cells: h.Cells})
}

// UnmarshalJSON parses the MarshalJSON format, validating that the cell
// count matches the dimensions (a nil cell array is accepted as all-zero).
func (h *Heatmap) UnmarshalJSON(data []byte) error {
	var raw heatmapJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if raw.W < 0 || raw.H < 0 {
		return fmt.Errorf("metrics: heatmap with negative dimensions %dx%d", raw.W, raw.H)
	}
	if raw.Cells == nil {
		raw.Cells = make([]float64, raw.W*raw.H)
	}
	if len(raw.Cells) != raw.W*raw.H {
		return fmt.Errorf("metrics: heatmap %dx%d carries %d cells, want %d", raw.W, raw.H, len(raw.Cells), raw.W*raw.H)
	}
	h.W, h.H, h.Cells = raw.W, raw.H, raw.Cells
	return nil
}

// shades are the glyph ramp for ASCII heatmaps.
var shades = []rune(" .:-=+*#%@")

// Render draws the heatmap as ASCII art, one glyph per cell, normalised to
// the maximum.
func (h *Heatmap) Render() string {
	max := h.Max()
	var b strings.Builder
	for y := 0; y < h.H; y++ {
		for x := 0; x < h.W; x++ {
			b.WriteRune(shade(h.At(x, y), max))
			b.WriteRune(' ')
		}
		b.WriteRune('\n')
	}
	return b.String()
}

func shade(v, max float64) rune {
	if max <= 0 {
		return shades[0]
	}
	idx := int(v / max * float64(len(shades)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(shades) {
		idx = len(shades) - 1
	}
	return shades[idx]
}

// AsciiPlot renders a series as a height x width scatter of '*', with axis
// annotations, for Figure 5-style queued-messages traces.
func AsciiPlot(s Series, width, height int) string {
	if len(s) == 0 || width <= 0 || height <= 0 {
		return "(empty series)\n"
	}
	ds := s.Downsample(width)
	max := ds.Max()
	if max == 0 {
		max = 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", len(ds)))
	}
	for x, v := range ds {
		y := height - 1 - v*(height-1)/max
		grid[y][x] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%6d ┤%s\n", max, string(grid[0]))
	for y := 1; y < height-1; y++ {
		fmt.Fprintf(&b, "%6s │%s\n", "", string(grid[y]))
	}
	fmt.Fprintf(&b, "%6d └%s\n", 0, strings.Repeat("─", len(ds)))
	fmt.Fprintf(&b, "%7s0%*d steps\n", "", len(ds)-1, len(s))
	return b.String()
}
