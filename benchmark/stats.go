package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the middle two for an
// even count); 0 for no samples. xs is not modified.
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

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailLadder is the set of percentiles a tail may be reported at. A
// fixed ladder keeps the reported percentile comparable between two runs
// whose sample counts differ slightly.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

// tail returns the highest ladder percentile that still has at least ten
// samples beyond it, and its value. ok is false below 20 samples, where
// not even the median has ten samples beyond it.
func tail(xs []float64) (pct, value float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for i := len(tailLadder) - 1; i >= 0; i-- {
		p := tailLadder[i]
		// idx is the last sample at or below the percentile; everything
		// after it lies beyond. The epsilon keeps 99.9 % of 10000 at 9990.
		idx := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
		if idx < 0 {
			idx = 0
		}
		if n-1-idx >= 10 {
			return p, s[idx], true
		}
	}
	return 0, 0, false
}

// quartiles returns Q1 and Q3 the way Python's
// statistics.quantiles(xs, n=4) (exclusive method) does, which is what
// the acceptance driver computes spreads with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		// Order statistic k*(n+1)/4, 1-based, interpolated; the clamp
		// extrapolates at the ends exactly as Python does.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise a regression bound has to stand clear of.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
