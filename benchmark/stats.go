package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the samples at
// or below it. Nearest rank always returns a measured value, never an
// interpolated one. An empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the mean of the two middle samples for even counts, so a
// three-sample set-up time or a two-sided A/A comparison behaves as expected.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b with 0 for an empty denominator: a layer that did no work on
// a workload reports 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// passCursor hands out work units (one job, or one batch of jobs) to the
// generator goroutines and decides when a window ends. A window always ends
// on a whole pass over the instance list — the first pass boundary at or
// after both the deadline and minUnits units — so every run solves the same
// instance mix however fast the host is, and per-solve means of simulated
// counts repeat exactly.
type passCursor struct {
	mu           sync.Mutex
	unitsPerPass int
	minUnits     int
	deadline     time.Time
	next         int
	closed       bool
}

func newPassCursor(unitsPerPass, minUnits int, deadline time.Time) *passCursor {
	return &passCursor{unitsPerPass: unitsPerPass, minUnits: max(minUnits, 1), deadline: deadline}
}

// take returns the next unit's index in the instance list order and its pass
// number, or ok=false once the window has ended. At least one pass always
// runs.
func (c *passCursor) take(now time.Time) (unit, pass int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, 0, false
	}
	if c.next >= c.minUnits && c.next%c.unitsPerPass == 0 && !now.Before(c.deadline) {
		c.closed = true
		return 0, 0, false
	}
	n := c.next
	c.next++
	return n % c.unitsPerPass, n / c.unitsPerPass, true
}
