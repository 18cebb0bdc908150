package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile for it to mean anything.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of sorted
// samples. It refuses when fewer than minBeyond samples lie beyond the
// rank: a p99 over 500 samples is the fifth-largest value, not a p99.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g over %d samples leaves %d beyond it, need %d", q*100, n, beyond, minBeyond)
	}
	return sorted[rank-1], nil
}

// median returns the middle of the samples (the mean of the middle two
// for an even count), or 0 for none. It sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratioOf returns a/b, or 0 when b is 0.
func ratioOf(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
