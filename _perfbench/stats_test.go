package main

import (
	"math"
	"testing"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	for _, tc := range []struct {
		n          int
		value      float64
		percentile float64
		beyond     int
	}{
		{1, 1, 100, 0},
		{5, 3, 60, 2}, // too few samples: the median
		{2, 2, 100, 0},
		{11, 6, 100 * 6.0 / 11, 5}, // index 0 has ten beyond, but never below the median
		{21, 11, 100 * 11.0 / 21, 10},
		{100, 90, 90, 10},
		{1000, 990, 99, 10},
	} {
		got := tailOf(seq(tc.n))
		if got.Value != tc.value || math.Abs(got.Percentile-tc.percentile) > 1e-9 || got.Beyond != tc.beyond || got.Samples != tc.n {
			t.Errorf("n=%d: got %+v, want value %g at p%.2f with %d beyond", tc.n, got, tc.value, tc.percentile, tc.beyond)
		}
	}
	if got := tailOf(nil); got != (tail{}) {
		t.Errorf("empty: got %+v", got)
	}
}

// TestQuartilesMatchPython pins the quartiles to Python's
// statistics.quantiles(xs, n=4), the rule the spread gate is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10.5, 9.75, 11.25, 10, 12, 9.5, 10.25, 11, 10.75, 9.25}, 9.6875, 11.0625},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %g", got)
	}
}
