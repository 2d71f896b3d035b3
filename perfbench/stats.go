package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile of xs, computed exactly from the raw
// samples by linear interpolation between the two closest ranks (the
// "type 7" estimator: quantile(xs, 0) is the minimum, quantile(xs, 1)
// the maximum). xs is not modified; an empty xs yields NaN.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return sortedQuantile(s, q)
}

func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// dist summarizes one set of samples.
type dist struct {
	N             int
	P50, P99, Max float64
}

func summarize(xs []float64) dist {
	s := slices.Clone(xs)
	slices.Sort(s)
	d := dist{N: len(s), P50: sortedQuantile(s, 0.5), P99: sortedQuantile(s, 0.99)}
	if len(s) > 0 {
		d.Max = s[len(s)-1]
	}
	return d
}
