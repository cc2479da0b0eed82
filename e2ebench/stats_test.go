package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins the quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, which is how the benchmark's
// spread is judged.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 2, 7, 7.5}, [3]float64{1.8125, 5.25, 7.875}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{hundred, 99, 99},
		{hundred, 50, 50},
		{hundred, 100, 100},
		{hundred, 0.5, 1},
		{[]float64{5, 1, 3}, 50, 3},
		{nil, 99, 0},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestWindowRates(t *testing.T) {
	base := time.Now()
	var ends []time.Time
	for i := 10; i >= 0; i-- { // unsorted on purpose
		ends = append(ends, base.Add(time.Duration(i)*time.Millisecond))
	}
	got := windowRates(ends, 5)
	if len(got) != 2 || !near(got[0], 1000) || !near(got[1], 1000) {
		t.Errorf("windowRates = %v, want [1000 1000]", got)
	}
}
