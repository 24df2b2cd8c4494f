package experiments

import (
	"reflect"
	"runtime"
	"testing"
)

// withProcs runs fn with GOMAXPROCS, the sweeps' worker count, set to p.
func withProcs(p int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
	fn()
}

// TestFigure4ParallelDeterminism asserts the sweep engine's core contract:
// fanning the (series, size, problem) runs over a worker pool produces
// bit-identical points to the serial engine, at any GOMAXPROCS.
func TestFigure4ParallelDeterminism(t *testing.T) {
	levels := []int{runtime.GOMAXPROCS(0), 4, 13}
	var serial []Point
	var err error
	withProcs(1, func() { serial, err = Figure4(testConfig(t)) })
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range levels {
		var got []Point
		withProcs(p, func() { got, err = Figure4(testConfig(t)) })
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", p, err)
		}
		if !reflect.DeepEqual(serial, got) {
			t.Errorf("GOMAXPROCS %d: points differ from serial run\nserial:   %+v\nparallel: %+v", p, serial, got)
		}
	}
}

// TestFigure5ParallelDeterminism covers the unfolding experiment: traces,
// heatmaps and summaries must not depend on completion order.
func TestFigure5ParallelDeterminism(t *testing.T) {
	w, err := SmallWorkload(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Figure5Config{Workload: w, Side: 8, Seed: 2}
	var serial []Figure5Result
	withProcs(1, func() { serial, err = Figure5(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{runtime.GOMAXPROCS(0), 6} {
		var got []Figure5Result
		withProcs(p, func() { got, err = Figure5(cfg) })
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", p, err)
		}
		if !reflect.DeepEqual(serial, got) {
			t.Errorf("GOMAXPROCS %d: results differ from serial run", p)
		}
	}
}

// TestSharedMapperAcrossSweeps guards order-independence for the idealised
// globally coordinated mapper: its cursor spans every node of a machine,
// and the series shares one factory value across all its runs, so nothing
// of that cursor may outlive a machine (or results would depend on sweep
// order).
func TestSharedMapperAcrossSweeps(t *testing.T) {
	w, err := SmallWorkload(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Just the fully-connected / ideal-mapper series, built once so both
	// sweeps run on the same factory value.
	series := DefaultFigure4Series(nil, nil, []int{16})[4:]
	run := func() (pts []Point) {
		withProcs(1, func() {
			pts, err = Figure4(Figure4Config{
				Workload: w,
				Series:   series,
				Seed:     1,
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	first := run()
	second := run()
	if !reflect.DeepEqual(first, second) {
		t.Errorf("repeated sweeps differ: mapper state leaked across runs\nfirst:  %+v\nsecond: %+v", first, second)
	}
}
