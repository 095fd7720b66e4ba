package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first, second and third quartile of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so a spread
// computed here matches one computed from the same values in Python. It
// needs at least two values; with fewer it returns the single value (or NaN)
// three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		v := math.NaN()
		if n == 1 {
			v = s[0]
		}
		return v, v, v
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the distance between the first and third quartile as a share of
// the median: the run-to-run noise a difference of medians must exceed.
// Fewer than two values have no measurable spread and report 0.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest value with at least p% of the values at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailPercentiles are the candidates tailPercentile picks from, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a reported tail percentile
// for it to mean anything.
const minBeyond = 10

// tailPercentile returns the highest percentile of n samples that has at
// least minBeyond samples above its nearest-rank position, and false when
// even the median has fewer.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= minBeyond {
			return p, true
		}
	}
	return 0, false
}
