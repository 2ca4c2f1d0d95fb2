package main

import "testing"

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		// statistics.quantiles(xs, n=4)[0] and [2]
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdicts(t *testing.T) {
	bound := 0.1
	lower := metricSpec{Name: "op_s_p50", Better: "lower", Bound: &bound}
	layer := metricSpec{Name: "prover.pct", Better: "lower"}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0}
	for _, c := range []struct {
		name string
		m    metricSpec
		p, c []float64
		want string
	}{
		{"same", lower, steady, steady, "within bound"},
		{"faster everywhere", lower, steady, scale(steady, 0.9), "improved"},
		{"too few pairs to claim", lower, steady[:5], scale(steady[:5], 0.9), "within bound"},
		{"slower past the bound", lower, steady, scale(steady, 1.2), "regressed"},
		{"slower within the bound", lower, steady, scale(steady, 1.05), "within bound"},
		{"spread wider than the bound", lower, noisy, noisy, "unresolved"},
		{"per-layer share grew", layer, steady, scale(steady, 1.2), "regressed"},
		{"per-layer share held", layer, steady, steady, "unchanged"},
	} {
		if got := judge(c.m, c.p, c.c).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
