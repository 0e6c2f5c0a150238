package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a tail percentile's rank
// for the percentile to be reported: p99 needs at least 1000 samples.
const minTail = 10

// percentile returns the exact nearest-rank q-quantile of xs: the smallest
// sample with at least ⌈q·n⌉ samples at or below it. xs is sorted in
// place. A tail percentile (q > 0.5) is refused when fewer than minTail
// samples lie beyond its rank, since its value would then rest on a
// handful of outliers.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", q*100)
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if q > 0.5 && n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, want ≥ %d", q*100, n, n-rank, minTail)
	}
	return xs[rank-1], nil
}

// median is the 0.5 nearest-rank percentile; it never refuses a
// non-empty sample.
func median(xs []float64) float64 {
	v, err := percentile(xs, 0.5)
	if err != nil {
		return 0
	}
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the first, second and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) does (the default "exclusive"
// method), so spreads computed here match those of a Python reader of
// the same runs. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 samples, have %d", n)
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2], nil
}

func ms(nanos int64) float64 { return float64(nanos) / 1e6 }
func us(nanos int64) float64 { return float64(nanos) / 1e3 }
