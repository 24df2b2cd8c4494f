// Package telemetry is a dependency-free metrics plane: counters, gauges
// and histograms with atomic hot-path updates, collected in a Registry and
// rendered in the Prometheus text exposition format (version 0.0.4).
//
// It is deliberately minimal — no default/global registry, no push, no
// label cardinality tracking. A process creates one Registry, threads it
// through its layers (service, store, replication, cluster router), and
// serves it on GET /metrics. Instruments are safe for concurrent use and
// cost one atomic op on the hot path; nil instruments are no-ops so call
// sites never need a registry check.
//
// Not to be confused with internal/metrics, which holds the paper's
// evaluation figures (Section V-C) and the job-result wire format.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant key/value pair attached to a series.
type Label struct {
	Key   string
	Value string
}

// Counter is a monotonically increasing int64.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. Safe on a nil receiver (no-op).
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n if positive. Safe on a nil receiver (no-op).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Safe on a nil receiver (no-op).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d (may be negative). Safe on a nil receiver (no-op).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into cumulative buckets and tracks
// their sum. Buckets are fixed at registration.
type Histogram struct {
	bounds  []float64 // sorted upper bounds, +Inf implicit
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// DurationBuckets is a general-purpose latency bucket layout in seconds,
// 1ms to 60s.
var DurationBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// FsyncBuckets resolves the sub-millisecond range where fsync latency
// lives on healthy disks, up to 1s for stalls.
var FsyncBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1}

// Observe records one value. Safe on a nil receiver (no-op).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Buckets are few (≤ ~16); linear scan beats binary search here.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

type series struct {
	labels string // rendered inner label string, "" if none
	c      *Counter
	g      *Gauge
	h      *Histogram

	mu sync.Mutex
	fn func() float64 // kindGaugeFunc; swappable on re-registration
}

func (s *series) call() float64 {
	s.mu.Lock()
	fn := s.fn
	s.mu.Unlock()
	if fn == nil {
		return 0
	}
	return fn()
}

type metricFamily struct {
	name   string
	help   string
	kind   kind
	series map[string]*series
}

// Registry holds named metric families. All methods are safe for
// concurrent use. Registering the same name+labels twice returns the
// existing instrument (GaugeFunc swaps in the new callback), so
// components that restart — a store reopened after a role change, a
// service rebuilt on promotion — keep accumulating into the same series.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*metricFamily
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*metricFamily)}
}

func (r *Registry) family(name, help string, k kind) *metricFamily {
	f, ok := r.fams[name]
	if !ok {
		f = &metricFamily{name: name, help: help, kind: k, series: make(map[string]*series)}
		r.fams[name] = f
		return f
	}
	if f.kind != k {
		panic(fmt.Sprintf("telemetry: %s re-registered as %s, was %s", name, k, f.kind))
	}
	if f.help == "" {
		f.help = help
	}
	return f
}

// Counter returns the counter for name+labels, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindCounter)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key, c: &Counter{}}
		f.series[key] = s
	}
	return s.c
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindGauge)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key, g: &Gauge{}}
		f.series[key] = s
	}
	return s.g
}

// GaugeFunc registers a gauge whose value is sampled by calling fn at
// encode time. Re-registering replaces the callback, so a component that
// is torn down and rebuilt (store reopen, promote/demote) rebinds the
// series to its live instance. fn must not call back into the registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	key := renderLabels(labels)
	r.mu.Lock()
	f := r.family(name, help, kindGaugeFunc)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key}
		f.series[key] = s
	}
	r.mu.Unlock()
	s.mu.Lock()
	s.fn = fn
	s.mu.Unlock()
}

// Histogram returns the histogram for name+labels, creating it with the
// given bucket upper bounds on first use (later bucket args are ignored).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindHistogram)
	s, ok := f.series[key]
	if !ok {
		bounds := make([]float64, len(buckets))
		copy(bounds, buckets)
		sort.Float64s(bounds)
		h := &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
		s = &series{labels: key, h: h}
		f.series[key] = s
	}
	return s.h
}

// Remove drops the series for name+labels (and the family once empty).
// Used when a cluster backend is removed from the fleet.
func (r *Registry) Remove(name string, labels ...Label) {
	if r == nil {
		return
	}
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		return
	}
	delete(f.series, key)
	if len(f.series) == 0 {
		delete(r.fams, name)
	}
}

// Families snapshots the registry into the parse/merge representation
// used by the router's fan-out aggregation. Families are sorted by name,
// series by label string, so output is deterministic.
func (r *Registry) Families() []Family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*metricFamily, 0, len(names))
	for _, name := range names {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()

	out := make([]Family, 0, len(fams))
	for _, f := range fams {
		// Snapshot series under the registry lock is not needed: the
		// series map is only mutated under r.mu, and we copy pointers.
		r.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ser := make([]*series, 0, len(keys))
		for _, k := range keys {
			ser = append(ser, f.series[k])
		}
		r.mu.Unlock()

		fam := Family{Name: f.name, Help: f.help, Type: f.kind.String()}
		for _, s := range ser {
			fam.Samples = append(fam.Samples, sampleSeries(f, s)...)
		}
		out = append(out, fam)
	}
	return out
}

func sampleSeries(f *metricFamily, s *series) []Sample {
	switch f.kind {
	case kindCounter:
		return []Sample{{Name: f.name, Labels: s.labels, Value: strconv.FormatInt(s.c.Value(), 10)}}
	case kindGauge:
		return []Sample{{Name: f.name, Labels: s.labels, Value: formatFloat(s.g.Value())}}
	case kindGaugeFunc:
		return []Sample{{Name: f.name, Labels: s.labels, Value: formatFloat(s.call())}}
	case kindHistogram:
		h := s.h
		out := make([]Sample, 0, len(h.bounds)+3)
		cum := int64(0)
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			out = append(out, Sample{
				Name:   f.name + "_bucket",
				Labels: addLabel(s.labels, "le", formatFloat(b)),
				Value:  strconv.FormatInt(cum, 10),
			})
		}
		cum += h.counts[len(h.bounds)].Load()
		out = append(out, Sample{Name: f.name + "_bucket", Labels: addLabel(s.labels, "le", "+Inf"), Value: strconv.FormatInt(cum, 10)})
		out = append(out, Sample{Name: f.name + "_sum", Labels: s.labels, Value: formatFloat(h.Sum())})
		out = append(out, Sample{Name: f.name + "_count", Labels: s.labels, Value: strconv.FormatInt(h.count.Load(), 10)})
		return out
	}
	return nil
}

// WriteText renders the registry in Prometheus text exposition format.
func (r *Registry) WriteText(w io.Writer) error {
	return WriteFamilies(w, r.Families())
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// renderLabels serializes labels into the canonical inner string
// (`k1="v1",k2="v2"`), sorted by key, values escaped.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// addLabel appends one key/value to an already-rendered label string.
func addLabel(rendered, key, value string) string {
	pair := key + `="` + escapeLabelValue(value) + `"`
	if rendered == "" {
		return pair
	}
	return rendered + "," + pair
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// helpUnescaper inverts escapeHelp, so HELP text parsed from one exposition
// and written into the next is escaped once, not once per hop.
var helpUnescaper = strings.NewReplacer(`\\`, `\`, `\n`, "\n")
