package main

import (
	"fmt"
	"math"
	"sort"
)

// nearestRank returns the p-quantile (0 < p <= 1) of xs by the nearest-rank
// rule: the smallest value with at least a share p of the values at or
// below it. xs need not be sorted; it is not modified.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), p)]
}

// rankIndex is the zero-based index nearestRank reads from n sorted values.
func rankIndex(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r - 1
}

// beyondTail counts the values strictly above the nearest-rank p-quantile
// position of n values: the samples that lie beyond a reported tail.
func beyondTail(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

// minTailBeyond is the number of samples a reported tail percentile must
// have beyond it; fewer and the percentile is noise.
const minTailBeyond = 10

// tailPercentile returns the nearest-rank p-quantile of xs, refusing when
// fewer than minTailBeyond samples lie beyond it.
func tailPercentile(xs []float64, p float64) (float64, error) {
	if b := beyondTail(len(xs), p); b < minTailBeyond {
		return 0, fmt.Errorf("p%g over %d samples leaves %d beyond it, need %d", p*100, len(xs), b, minTailBeyond)
	}
	return nearestRank(xs, p), nil
}

// median is the middle value (mean of the two middle values for an even
// count); NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean; 0 for no values.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio divides, returning 0 when the denominator is 0 (a layer that did
// no work on a workload reports 0, not NaN).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
