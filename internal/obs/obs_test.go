package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

// quantile returns an estimate of the q-quantile (q in [0, 1]; out-of-
// range q is clamped) of everything observed so far, as a snapshot
// computes it: the midpoint of the log-scale bucket holding the q-th
// observation, clamped to the exact [Min, Max] envelope — so a
// single-valued histogram reports exact quantiles, quantile(0) ≥ Min, and
// quantile(1) ≤ Max. Returns 0 when the histogram is empty or nil, and NaN
// for NaN q.
func (h *Histogram) quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	var merged [histBuckets]int64
	total := h.mergeBuckets(&merged)
	return quantileFromBuckets(&merged, total, q, h.Min(), h.Max())
}

// mean returns Sum/Count (0 when empty or nil).
func (h *Histogram) mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// count returns the number of recorded durations (0 on a nil timer).
func (t *Timer) count() int64 {
	if t == nil {
		return 0
	}
	return t.h.Count()
}

// quantile returns the q-quantile of the recorded durations in seconds
// (0 on a nil timer).
func (t *Timer) quantile(q float64) float64 {
	if t == nil {
		return 0
	}
	return t.h.quantile(q)
}

// TestCounterConcurrent hammers one counter from many goroutines; run
// under -race this also proves the implementation is data-race free.
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	const workers, perWorker = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if again := r.Counter("hits"); again != c {
		t.Error("Counter must return the same handle for the same name")
	}
}

func TestGaugeSetMaxConcurrent(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("max")
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				g.SetMax(float64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	if got, want := g.Value(), float64(workers*per-1); got != want {
		t.Fatalf("gauge max = %g, want %g", got, want)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sizes")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i%10 + 1))
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
	if got, want := h.Sum(), float64(workers*per)*5.5; math.Abs(got-want) > 1e-6 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	if h.Min() != 1 || h.Max() != 10 {
		t.Fatalf("min/max = %g/%g, want 1/10", h.Min(), h.Max())
	}
	if again := r.Histogram("sizes"); again != h {
		t.Error("Histogram must return the same handle for the same name")
	}
}

// TestHistogramQuantileAccuracy checks that quantiles of a known uniform
// distribution land within the log-bucketing's documented relative error.
func TestHistogramQuantileAccuracy(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	const n = 100000
	for i := 1; i <= n; i++ {
		h.Observe(float64(i) / n) // uniform on (0, 1]
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 0.50},
		{0.90, 0.90},
		{0.99, 0.99},
		{0.999, 0.999},
	} {
		got := h.quantile(tc.q)
		if rel := math.Abs(got-tc.want) / tc.want; rel > 0.07 {
			t.Errorf("Quantile(%g) = %g, want %g ±7%% (rel err %.3f)", tc.q, got, tc.want, rel)
		}
	}
	if q0 := h.quantile(0); q0 < h.Min() {
		t.Errorf("Quantile(0) = %g below Min %g", q0, h.Min())
	}
	if q1 := h.quantile(1); q1 > h.Max() {
		t.Errorf("Quantile(1) = %g above Max %g", q1, h.Max())
	}
}

// TestHistogramEdgeCases pins the documented behavior for empty
// histograms, NaN/±Inf observations, non-positive values, and
// single-bucket saturation.
func TestHistogramEdgeCases(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		h := newHistogram()
		if h.Count() != 0 || h.Sum() != 0 || h.mean() != 0 || h.Min() != 0 || h.Max() != 0 {
			t.Error("empty histogram must read all-zero")
		}
		if got := h.quantile(0.99); got != 0 {
			t.Errorf("Quantile on empty = %g, want 0", got)
		}
		s := h.snapshot()
		if s.Count != 0 || s.Mean != 0 || s.P50 != 0 || s.P999 != 0 {
			t.Errorf("empty snapshot = %+v, want zeros", s)
		}
	})
	t.Run("nan_dropped", func(t *testing.T) {
		h := newHistogram()
		h.Observe(math.NaN())
		if h.Count() != 0 {
			t.Error("NaN observation must be dropped")
		}
		h.Observe(2)
		h.Observe(math.NaN())
		if h.Count() != 1 || h.mean() != 2 {
			t.Errorf("count/mean after NaN = %d/%g, want 1/2", h.Count(), h.mean())
		}
		if got := h.quantile(math.NaN()); !math.IsNaN(got) {
			t.Errorf("Quantile(NaN) = %g, want NaN", got)
		}
	})
	t.Run("infinities", func(t *testing.T) {
		h := newHistogram()
		h.Observe(math.Inf(1))
		h.Observe(math.Inf(-1))
		if h.Count() != 2 {
			t.Fatalf("count = %d, want 2", h.Count())
		}
		if s := h.Sum(); math.IsInf(s, 0) || math.IsNaN(s) {
			t.Errorf("sum = %g, want finite (clamped)", s)
		}
		if m := h.mean(); math.IsInf(m, 0) || math.IsNaN(m) {
			t.Errorf("mean = %g, want finite", m)
		}
		// +Inf saturates into the overflow bucket, -Inf into bucket 0.
		if got := bucketIndex(math.Inf(1)); got != histBuckets-1 {
			t.Errorf("bucketIndex(+Inf) = %d, want %d", got, histBuckets-1)
		}
		if got := bucketIndex(math.Inf(-1)); got != 0 {
			t.Errorf("bucketIndex(-Inf) = %d, want 0", got)
		}
	})
	t.Run("nonpositive", func(t *testing.T) {
		h := newHistogram()
		h.Observe(0)
		h.Observe(-3)
		if h.Count() != 2 || h.Min() != -3 || h.Max() != 0 {
			t.Errorf("count/min/max = %d/%g/%g, want 2/-3/0", h.Count(), h.Min(), h.Max())
		}
		// Non-positive values share bucket 0, whose representative (0) is
		// clamped into the exact [Min, Max] envelope.
		if got := h.quantile(0.5); got < -3 || got > 0 {
			t.Errorf("Quantile(0.5) = %g, want within [-3, 0]", got)
		}
	})
	t.Run("single_bucket_saturation", func(t *testing.T) {
		// All mass in one bucket: every quantile must report the exact
		// value, because midpoints clamp to the [Min, Max] envelope.
		h := newHistogram()
		for i := 0; i < 1000; i++ {
			h.Observe(3.7)
		}
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got := h.quantile(q); got != 3.7 {
				t.Errorf("Quantile(%g) = %g, want exactly 3.7", q, got)
			}
		}
	})
	t.Run("below_range_saturation", func(t *testing.T) {
		h := newHistogram()
		tiny := math.Ldexp(1, histMinExp-5) // below 2^histMinExp
		h.Observe(tiny)
		if got := h.quantile(0.5); got != tiny {
			t.Errorf("Quantile(0.5) = %g, want exact %g via Min clamp", got, tiny)
		}
	})
	t.Run("above_range_saturation", func(t *testing.T) {
		h := newHistogram()
		huge := math.Ldexp(1, histMaxExp+3)
		h.Observe(huge)
		if got := h.quantile(0.5); got != huge {
			t.Errorf("Quantile(0.5) = %g, want exact %g via Max clamp", got, huge)
		}
	})
	t.Run("quantile_clamped", func(t *testing.T) {
		h := newHistogram()
		h.Observe(1)
		h.Observe(2)
		// q clamps to 0 → rank 1 → bucket holding the value 1, whose
		// midpoint carries the bucketing's relative error.
		if got := h.quantile(-0.5); got < 1 || got > 1.125 {
			t.Errorf("Quantile(-0.5) = %g, want within bucket of 1", got)
		}
		if got := h.quantile(2); got != 2 {
			t.Errorf("Quantile(2) = %g, want 2 (clamped to q=1)", got)
		}
	})
	t.Run("nil", func(t *testing.T) {
		var h *Histogram
		h.Observe(1)
		if h.Count() != 0 || h.Sum() != 0 || h.mean() != 0 || h.quantile(0.5) != 0 {
			t.Error("nil histogram must read as zero")
		}
	})
}

// TestBucketIndexMid checks that bucketIndex and bucketMid agree: every
// in-range value's bucket midpoint is within one sub-bucket width of the
// value.
func TestBucketIndexMid(t *testing.T) {
	for _, v := range []float64{1e-9, 2.5e-6, 0.001, 0.5, 1, 3.7, 1000, 1e9} {
		i := bucketIndex(v)
		mid := bucketMid(i)
		if rel := math.Abs(mid-v) / v; rel > 1.0/histSubBuckets {
			t.Errorf("bucketMid(bucketIndex(%g)) = %g, rel err %.4f > %.4f", v, mid, rel, 1.0/histSubBuckets)
		}
	}
	// Bucket boundaries are monotone.
	prev := 0.0
	for i := 1; i < histBuckets; i++ {
		mid := bucketMid(i)
		if mid <= prev {
			t.Fatalf("bucketMid(%d) = %g not increasing past %g", i, mid, prev)
		}
		prev = mid
	}
}

func TestTimer(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("op")
	sw := tm.Start()
	time.Sleep(time.Millisecond)
	sw.Stop()
	tm.Observe(2 * time.Millisecond)
	if got := tm.count(); got != 2 {
		t.Fatalf("timer count = %d, want 2", got)
	}
	if sum := tm.h.Sum(); sum < 0.003 || sum > 1 {
		t.Errorf("timer sum = %g s, want ≥ 3ms and sane", sum)
	}
	if q := tm.quantile(0.5); q <= 0 {
		t.Errorf("timer p50 = %g, want > 0", q)
	}
}

// TestNilFastPath exercises every operation through a nil registry: all
// handles are nil and every method must be a safe no-op. This is the
// disabled configuration that instrumented hot paths rely on.
func TestNilFastPath(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	tm := r.Timer("t")
	if c != nil || g != nil || h != nil || tm != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.SetMax(2)
	h.Observe(4)
	tm.Observe(time.Second)
	tm.Start().Stop()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.mean() != 0 || tm.count() != 0 {
		t.Error("nil handles must read as zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 || len(snap.Timers) != 0 {
		t.Error("nil registry snapshot must be empty")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON on nil registry: %v", err)
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("b_total").Add(2)
		r.Counter("a_total").Add(1)
		r.Gauge("z_max").Set(9.5)
		r.Histogram("sizes").Observe(3)
		r.Timer("t").Observe(time.Millisecond)
		return r
	}
	var b1, b2 bytes.Buffer
	if err := build().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("identical registries must serialize byte-identically")
	}
	var snap Snapshot
	if err := json.Unmarshal(b1.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if snap.Counters["a_total"] != 1 || snap.Counters["b_total"] != 2 {
		t.Errorf("counters = %v", snap.Counters)
	}
	if snap.Gauges["z_max"] != 9.5 {
		t.Errorf("gauges = %v", snap.Gauges)
	}
	if hs := snap.Histograms["sizes"]; hs.Count != 1 || hs.P50 != 3 || hs.P999 != 3 {
		t.Errorf("histograms = %+v, want count 1 with exact quantiles 3", hs)
	}
	if snap.Timers["t"].Count != 1 {
		t.Errorf("timers = %v", snap.Timers)
	}
}

// TestSnapshotQuantiles checks the snapshot surfaces the percentile
// fields with the documented accuracy.
func TestSnapshotQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	const n = 10000
	for i := 1; i <= n; i++ {
		h.Observe(float64(i))
	}
	s := r.Snapshot().Histograms["lat"]
	for _, tc := range []struct {
		name string
		got  float64
		want float64
	}{
		{"p50", s.P50, 5000},
		{"p90", s.P90, 9000},
		{"p99", s.P99, 9900},
		{"p999", s.P999, 9990},
	} {
		if rel := math.Abs(tc.got-tc.want) / tc.want; rel > 0.07 {
			t.Errorf("%s = %g, want %g ±7%%", tc.name, tc.got, tc.want)
		}
	}
	if s.Min != 1 || s.Max != n {
		t.Errorf("min/max = %g/%g, want exact 1/%d", s.Min, s.Max, n)
	}
	if s.P50 > s.P90 || s.P90 > s.P99 || s.P99 > s.P999 {
		t.Errorf("quantiles not monotone: %+v", s)
	}
}
