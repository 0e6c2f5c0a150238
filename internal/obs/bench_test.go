package obs

import (
	"sync/atomic"
	"testing"
	"time"
)

// The benchmarks below compare the sharded metric cells against the
// single-atomic design they replaced. Run with -cpu to scale the
// contention, e.g.:
//
//	go test ./internal/obs -bench 'Counter|Timer' -cpu 1,4,8,16
//
// On one core the two are equivalent (one uncontended atomic add); the
// sharded win appears under RunParallel at GOMAXPROCS ≥ 8, where every
// single-atomic add ping-pongs one cache line between cores while each
// sharded add stays in its own line.

func BenchmarkCounterSharded(b *testing.B) {
	c := newCounter()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
	if c.Value() != int64(b.N) {
		b.Fatalf("count = %d, want %d", c.Value(), b.N)
	}
}

// BenchmarkCounterSingleAtomic is the pre-sharding baseline: one atomic
// shared by all goroutines.
func BenchmarkCounterSingleAtomic(b *testing.B) {
	var c atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
	if c.Load() != int64(b.N) {
		b.Fatalf("count = %d, want %d", c.Load(), b.N)
	}
}

func BenchmarkTimerSharded(b *testing.B) {
	tm := &Timer{h: newHistogram()}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tm.Start().Stop()
		}
	})
	if tm.count() != int64(b.N) {
		b.Fatalf("count = %d, want %d", tm.count(), b.N)
	}
}

// singleAtomicTimer is the pre-sharding timer baseline: one count and one
// sum cell shared by all goroutines.
type singleAtomicTimer struct {
	count   atomic.Int64
	sumBits atomic.Uint64
}

func (t *singleAtomicTimer) observe(d time.Duration) {
	t.count.Add(1)
	for {
		old := t.sumBits.Load()
		next := old + uint64(d)
		if t.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

func BenchmarkTimerSingleAtomic(b *testing.B) {
	var tm singleAtomicTimer
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			start := time.Now()
			tm.observe(time.Since(start))
		}
	})
	if tm.count.Load() != int64(b.N) {
		b.Fatalf("count = %d, want %d", tm.count.Load(), b.N)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := newHistogram()
	b.RunParallel(func(pb *testing.PB) {
		v := 0
		for pb.Next() {
			h.Observe(float64(v%1000 + 1))
			v++
		}
	})
	if h.Count() != int64(b.N) {
		b.Fatalf("count = %d, want %d", h.Count(), b.N)
	}
}

func BenchmarkHistogramQuantile(b *testing.B) {
	h := newHistogram()
	for i := 1; i <= 100000; i++ {
		h.Observe(float64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.quantile(0.99)
	}
}

// BenchmarkTimerStartStopAllocs pins the Stopwatch API at zero
// allocations (the alloc regression tests assert the same through the
// instrumented engine paths).
func BenchmarkTimerStartStopAllocs(b *testing.B) {
	tm := &Timer{h: newHistogram()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm.Start().Stop()
	}
}
