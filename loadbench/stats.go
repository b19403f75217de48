package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a p99 is only reported from at least 1 000 samples.
const minBeyond = 10

// quantile returns the nearest-rank p-quantile of an ascending slice,
// or 0 when it is empty.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailPercentile returns the highest of the usual tail percentiles that
// leaves at least minBeyond of n samples above it, or 0.5 when even p90
// does not.
func tailPercentile(n int) float64 {
	for _, p := range []float64{0.999, 0.99, 0.95, 0.9} {
		rank := int(math.Ceil(p * float64(n)))
		if n-rank >= minBeyond {
			return p
		}
	}
	return 0.5
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	return quantile(sorted(xs), 0.5)
}

// ratio returns num/den, or 0 when den is 0: a per-op count of a layer
// the workload leaves idle reads 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
