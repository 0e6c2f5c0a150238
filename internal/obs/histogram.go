package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram bucketing: log-linear over the float64 exponent range, in the
// HDR-histogram style. Each power-of-two octave splits into 2^histSubBits
// linear sub-buckets, read straight off the top mantissa bits, so
// bucketing one observation costs a few integer ops — no search, no
// branch on data. The widest bucket spans a factor of 1+1/histSubBuckets,
// so a quantile reported at the bucket midpoint carries at most ~6%
// relative error; Min and Max are tracked exactly.
//
// The covered range [2^histMinExp, 2^histMaxExp) ≈ [9.1e-13, 1.1e12)
// holds both latencies in seconds (sub-nanosecond through ~35000 years)
// and discrete sizes (arc counts, frontier sizes, dirty-set sizes through
// a trillion). Values outside it saturate into the edge buckets; zero and
// negative observations (including -Inf) land in a dedicated bucket 0,
// +Inf in the overflow bucket, and NaN observations are dropped entirely.
const (
	histSubBits    = 3
	histSubBuckets = 1 << histSubBits // 8 sub-buckets per octave
	histMinExp     = -40              // values below 2^-40 saturate into the first positive bucket
	histMaxExp     = 40               // values at/above 2^40 saturate into the overflow bucket
	histOctaves    = histMaxExp - histMinExp
	// Bucket 0: v ≤ 0. Buckets 1..histOctaves*histSubBuckets: positive
	// finite values in range. Last bucket: overflow.
	histBuckets = histOctaves*histSubBuckets + 2
)

// histShard is one shard's worth of histogram state. Buckets and count
// are updated with wait-free atomic adds; the sum is a CAS loop, but a
// shard is (statistically) owned by one goroutine, so the CAS almost
// never retries. Buckets within a shard are bare atomics — padding every
// bucket would cost 64× the memory for lines that are never cross-core
// contended — and the trailing pad keeps a shard's tail off the next
// shard's first line.
type histShard struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
	_       [cacheLine]byte
}

// Histogram is a sharded log-bucketed histogram with quantile reads. The
// hot path (Observe) touches only the calling goroutine's shard; reads
// (Count, Sum, snapshots with their quantiles) merge all shards. Obtain
// histograms from a Registry; a nil Histogram is a no-op.
type Histogram struct {
	shards []histShard
	// minBits/maxBits track the exact extremes (float bits, CAS-updated
	// only when an observation extends the range — rare after warmup).
	minBits atomic.Uint64
	maxBits atomic.Uint64
}

func newHistogram() *Histogram {
	h := &Histogram{shards: make([]histShard, shardCount)}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// bucketIndex maps an observation to its bucket. v must not be NaN.
func bucketIndex(v float64) int {
	if v <= 0 {
		return 0
	}
	bits := math.Float64bits(v)
	e := int(bits>>52) - 1023 // sign bit is 0 for v > 0; +Inf has e = 1024
	if e < histMinExp {
		return 1
	}
	if e >= histMaxExp {
		return histBuckets - 1
	}
	sub := int(bits>>(52-histSubBits)) & (histSubBuckets - 1)
	return 1 + (e-histMinExp)*histSubBuckets + sub
}

// bucketMid returns the representative value reported for bucket i: the
// midpoint of its bounds, the lower bound for the overflow bucket, and 0
// for the ≤0 bucket.
func bucketMid(i int) float64 {
	if i == 0 {
		return 0
	}
	if i == histBuckets-1 {
		return math.Ldexp(1, histMaxExp)
	}
	i--
	oct := i/histSubBuckets + histMinExp
	sub := float64(i % histSubBuckets)
	lo := math.Ldexp(1+sub/histSubBuckets, oct)
	hi := math.Ldexp(1+(sub+1)/histSubBuckets, oct)
	return (lo + hi) / 2
}

// Observe records one value. NaN observations are dropped; ±Inf saturate
// into the edge buckets and contribute ±math.MaxFloat64 to the running
// sum so Sum and Mean stay finite. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	sh := &h.shards[shardIndex()]
	sh.buckets[bucketIndex(v)].Add(1)
	sh.count.Add(1)
	sv := v
	if math.IsInf(sv, 0) {
		sv = math.Copysign(math.MaxFloat64, sv)
	}
	for {
		old := sh.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + sv)
		if sh.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if math.Float64frombits(old) <= sv || h.minBits.CompareAndSwap(old, math.Float64bits(sv)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(old) >= sv || h.maxBits.CompareAndSwap(old, math.Float64bits(sv)) {
			break
		}
	}
}

// Count returns the number of observations (0 for a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var total int64
	for i := range h.shards {
		total += h.shards[i].count.Load()
	}
	return total
}

// Sum returns the sum of all observed values (0 for a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	var total float64
	for i := range h.shards {
		total += math.Float64frombits(h.shards[i].sumBits.Load())
	}
	return total
}

// Min returns the smallest observed value, exactly (0 when empty or nil).
func (h *Histogram) Min() float64 {
	if h == nil || h.Count() == 0 {
		return 0
	}
	return math.Float64frombits(h.minBits.Load())
}

// Max returns the largest observed value, exactly (0 when empty or nil).
func (h *Histogram) Max() float64 {
	if h == nil || h.Count() == 0 {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// mergeBuckets folds all shards into dst and returns the total count.
func (h *Histogram) mergeBuckets(dst *[histBuckets]int64) int64 {
	var total int64
	for s := range h.shards {
		sh := &h.shards[s]
		for i := range sh.buckets {
			if n := sh.buckets[i].Load(); n != 0 {
				dst[i] += n
				total += n
			}
		}
	}
	return total
}

func quantileFromBuckets(buckets *[histBuckets]int64, total int64, q, min, max float64) float64 {
	if math.IsNaN(q) {
		return math.NaN()
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range buckets {
		cum += buckets[i]
		if cum >= rank {
			v := bucketMid(i)
			if v < min {
				v = min
			}
			if v > max {
				v = max
			}
			return v
		}
	}
	return max // unreachable: cum == total ≥ rank by the loop's end
}

// snapshot reads the merged totals and the standard latency percentiles
// in one pass over the shards.
func (h *Histogram) snapshot() HistogramSnapshot {
	var merged [histBuckets]int64
	total := h.mergeBuckets(&merged)
	s := HistogramSnapshot{
		Count: total,
		Sum:   h.Sum(),
		Min:   h.Min(),
		Max:   h.Max(),
	}
	if total == 0 {
		return s
	}
	s.Mean = s.Sum / float64(total)
	s.P50 = quantileFromBuckets(&merged, total, 0.50, s.Min, s.Max)
	s.P90 = quantileFromBuckets(&merged, total, 0.90, s.Min, s.Max)
	s.P99 = quantileFromBuckets(&merged, total, 0.99, s.Min, s.Max)
	s.P999 = quantileFromBuckets(&merged, total, 0.999, s.Min, s.Max)
	return s
}

// Timer records durations into a histogram, in seconds. A nil Timer is a
// no-op.
type Timer struct {
	h *Histogram
}

// Start begins timing and returns a Stopwatch whose Stop records the
// elapsed time. The Stopwatch is a plain value — Start/Stop perform no
// heap allocations, so timers can wrap per-node hot paths (the alloc
// regression tests pin this).
func (t *Timer) Start() Stopwatch {
	if t == nil {
		return Stopwatch{}
	}
	return Stopwatch{t: t, start: time.Now()}
}

// Stopwatch is one in-flight timing started by Timer.Start. The zero
// value (and any Stopwatch from a nil Timer) is a no-op.
type Stopwatch struct {
	t     *Timer
	start time.Time
}

// Stop records the time elapsed since Start. No-op on a zero Stopwatch;
// calling Stop more than once records the (longer) elapsed time again.
func (s Stopwatch) Stop() {
	if s.t == nil {
		return
	}
	s.t.h.Observe(time.Since(s.start).Seconds())
}

// Observe records a duration directly.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.h.Observe(d.Seconds())
}
