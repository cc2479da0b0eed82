package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that split xs into four
// groups, computed exactly as Python's statistics.quantiles(xs, n=4)
// does with its default "exclusive" method, so the spread this
// benchmark reports matches the one its acceptance check computes.
// It needs at least two values; a single value is returned three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	cut := func(i int) float64 {
		// Python clamps j into [1, len-1] before taking delta, so for
		// small samples the outer cuts extrapolate past the data.
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs: the smallest value with at least p% of the sample at or below
// it. Nearest rank never invents a value the sample did not contain.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := min(max(int(math.Ceil(p/100*float64(len(s)))), 1), len(s))
	return s[rank-1]
}
