package main

import "testing"

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 102, 98, 101, 99, 100, 103, 97, 100, 101}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		base   []float64
		change []float64
		lower  bool
		bound  float64
		want   string
	}{
		{"faster", base, scale(base, 0.8), true, 0.1, improved},
		{"slower", base, scale(base, 1.3), true, 0.1, worse},
		{"same", base, base, true, 0.1, withinBound},
		{"higher is better", base, scale(base, 1.2), false, 0.1, improved},
		{"too few pairs", base[:9], scale(base[:9], 0.5), true, 0.1, unresolved},
		{"spread wider than bound", []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}, base, true, 0.1, unresolved},
	} {
		if got := compareRuns(tc.base, tc.change, tc.lower, tc.bound); got.Verdict != tc.want {
			t.Errorf("%s: verdict %q (%+v), want %q", tc.name, got.Verdict, got, tc.want)
		}
	}
}
