package main

import (
	"math/rand"
	"testing"
)

func TestPercentileIsExactOrderStatistic(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 500}, {0.99, 990}, {0.9, 900}, {0.001, 1}} {
		got, err := percentile(xs, c.q)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..1000 = %v, %v; want %v", c.q*100, got, err, c.want)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{1000, 0.99, true},   // 10 samples beyond p99
		{999, 0.99, false},   // 9 beyond
		{100, 0.9, true},     // 10 beyond p90
		{99, 0.9, false},     // 9 beyond
		{1, 0.5, true},       // a median needs no tail
		{0, 0.5, false},      // nothing to report
		{10000, 0.999, true}, // 10 beyond p99.9
	} {
		xs := make([]float64, c.n)
		if _, err := percentile(xs, c.q); (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err = %v, want ok = %v", c.q*100, c.n, err, c.ok)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3.0, 1.0, 2.0], n=4) == [1.0, 2.0, 3.0]
	// statistics.quantiles([5.0, 1.0], n=4) == [0.0, 3.0, 6.0]
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, q2, q3, err := quartiles(c.xs)
		if err != nil || [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, %v; want %v", c.xs, q1, q2, q3, err, c.want)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample: want an error")
	}
}
