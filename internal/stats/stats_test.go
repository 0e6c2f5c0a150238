package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryKnownValues(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	// Population variance of this classic dataset is 4; sample variance is
	// 32/7.
	if math.Abs(s.Var()-32.0/7.0) > 1e-12 {
		t.Errorf("Var = %v, want 32/7", s.Var())
	}
	if !strings.Contains(s.String(), "min=2 max=9") {
		t.Errorf("String = %q, want min=2 max=9", s.String())
	}
	if s.StdErr() <= 0 {
		t.Error("StdErr must be positive")
	}
	if !strings.Contains(s.String(), "n=8") {
		t.Errorf("String = %q", s.String())
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.Std() != 0 || s.StdErr() != 0 {
		t.Error("empty summary must be all zeros")
	}
	s.Add(3)
	if s.Mean() != 3 || s.Var() != 0 || !strings.Contains(s.String(), "min=3 max=3") {
		t.Error("single-sample summary wrong")
	}
}

// Property: Welford agrees with the two-pass formulas.
func TestQuickSummaryMatchesTwoPass(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%100 + 1
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		var s Summary
		for i := range xs {
			xs[i] = rng.NormFloat64()*10 + 5
			s.Add(xs[i])
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		if math.Abs(mean-s.Mean()) > 1e-9*(1+math.Abs(mean)) {
			return false
		}
		if n > 1 {
			v := 0.0
			for _, x := range xs {
				v += (x - mean) * (x - mean)
			}
			v /= float64(n - 1)
			if math.Abs(v-s.Var()) > 1e-7*(1+v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int{3, 5, 3, 7, 3, 5} {
		h.Add(v)
	}
	if h.Count(3) != 3 || h.Count(5) != 2 || h.Count(7) != 1 || h.Count(99) != 0 {
		t.Error("counts wrong")
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count(3) != 0 || h.Count(0) != 0 {
		t.Error("empty histogram must be zeroed")
	}
}

func TestQuantile(t *testing.T) {
	data := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if got := Quantile(data, 0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := Quantile(data, 1); got != 9 {
		t.Errorf("q1 = %v, want 9", got)
	}
	// Sorted: 1 1 2 3 4 5 6 9; median = (3+4)/2.
	if got := Quantile(data, 0.5); got != 3.5 {
		t.Errorf("median = %v, want 3.5", got)
	}
	// The input must not be reordered.
	if data[0] != 3 || data[7] != 6 {
		t.Error("Quantile must not modify its input")
	}
	if got := Quantile([]float64{7}, 0.3); got != 7 {
		t.Errorf("single-element quantile = %v", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) || !math.IsNaN(Quantile(data, -0.1)) ||
		!math.IsNaN(Quantile(data, 1.1)) || !math.IsNaN(Quantile(data, math.NaN())) {
		t.Error("invalid quantile inputs must return NaN")
	}
	// Interpolation: q=0.25 over 8 points → pos 1.75 → 1·0.25 + 2·0.75.
	if got, want := Quantile(data, 0.25), 1*0.25+2*0.75; math.Abs(got-want) > 1e-12 {
		t.Errorf("q0.25 = %v, want %v", got, want)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%50 + 1
		rng := rand.New(rand.NewSource(seed))
		data := make([]float64, n)
		for i := range data {
			data[i] = rng.NormFloat64() * 5
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(data, q)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return Quantile(data, 0) <= Quantile(data, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("degree", "flooding", "skyline")
	tb.AddRow("10", "10.000", "5.500")
	tb.AddRow("20", "20.000")     // short row: last cell empty
	tb.AddRow("x", "1", "2", "3") // long row: extra cell dropped
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "degree") || !strings.Contains(lines[0], "skyline") {
		t.Errorf("header line: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Errorf("separator line: %q", lines[1])
	}
	if !strings.Contains(lines[2], "5.500") {
		t.Errorf("row line: %q", lines[2])
	}
	if strings.Contains(out, "3") && strings.Contains(lines[4], "  3") {
		t.Errorf("extra cell should be dropped: %q", lines[4])
	}

	csv := tb.CSV()
	if !strings.HasPrefix(csv, "degree,flooding,skyline\n") {
		t.Errorf("CSV header: %q", csv)
	}
	if !strings.Contains(csv, "10,10.000,5.500") {
		t.Errorf("CSV row missing: %q", csv)
	}
}
