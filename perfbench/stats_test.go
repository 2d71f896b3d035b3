package main

import (
	"math"
	"testing"
)

func TestQuantileExact(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
		{0.1, 1.4}, {0.99, 4.96},
	} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("quantile sorted its input in place: %v", xs)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Errorf("quantile of no samples should be NaN")
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v", got)
	}
}

// TestQuantileNotBucketed pins the reason the benchmark does not read
// quantiles from internal/hist: two samples 5% apart stay 5% apart
// instead of snapping to one 19%-wide bucket edge.
func TestQuantileNotBucketed(t *testing.T) {
	a := quantile([]float64{1.00, 1.00, 1.00}, 0.99)
	b := quantile([]float64{1.05, 1.05, 1.05}, 0.99)
	if math.Abs(b/a-1.05) > 1e-12 {
		t.Errorf("p99 ratio = %v, want 1.05", b/a)
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending on purpose
	}
	d := summarize(xs)
	if d.N != 2000 || d.Max != 2000 {
		t.Errorf("summarize(1..2000) = %+v", d)
	}
	if math.Abs(d.P50-1000.5) > 1e-9 || math.Abs(d.P99-1980.01) > 1e-9 {
		t.Errorf("p50/p99 = %v/%v, want 1000.5/1980.01", d.P50, d.P99)
	}
	if d := summarize(nil); d.N != 0 || !math.IsNaN(d.P50) {
		t.Errorf("summarize(nil) = %+v", d)
	}
}
