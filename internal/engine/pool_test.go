package engine

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
)

// TestForEachBatch drives the scheduler directly, with no engine pass
// around it: every batch index runs exactly once, no two workers share a
// scratch, the pass uses min(workers, n) workers, and the nodes the
// workers book add up to the pass total. Each case runs two passes on one
// engine, so the second also checks that the books start from zero. The
// race detector (the CI race matrix runs this package at GOMAXPROCS 2 and
// 4) reports a scratch handed to two goroutines through the unsynchronized
// sc.nodes writes.
func TestForEachBatch(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for _, n := range []int{0, 1, 3, 1000} {
			t.Run(fmt.Sprintf("workers=%d/n=%d", workers, n), func(t *testing.T) {
				e := New(Config{Workers: workers})
				want := 0
				for i := 0; i < n; i++ {
					want += i%7 + 1
				}
				for pass := 0; pass < 2; pass++ {
					runs := make([]atomic.Int32, n)
					var mu sync.Mutex
					active := map[*scratch]int{}
					shared := false
					used := e.forEachBatch(n, func(i int, sc *scratch) {
						mu.Lock()
						active[sc]++
						shared = shared || active[sc] > 1
						mu.Unlock()
						runs[i].Add(1)
						sc.nodes += i%7 + 1
						runtime.Gosched()
						mu.Lock()
						active[sc]--
						mu.Unlock()
					})
					if used != min(workers, n) {
						t.Fatalf("pass %d used %d workers, want %d", pass, used, min(workers, n))
					}
					for i := range runs {
						if got := runs[i].Load(); got != 1 {
							t.Errorf("pass %d: index %d ran %d times", pass, i, got)
						}
					}
					if shared {
						t.Errorf("pass %d: two workers held one scratch at once", pass)
					}
					for sc := range active {
						if !slices.Contains(e.scratches[:used], sc) {
							t.Errorf("pass %d: a worker ran on a scratch outside e.scratches[:%d]", pass, used)
						}
					}
					total := 0
					for _, sc := range e.scratches[:used] {
						total += sc.nodes
					}
					if total != want {
						t.Errorf("pass %d: workers booked %d nodes, want %d", pass, total, want)
					}
					var s Stats
					s.recordLoads(e.scratches[:used])
					if n > 0 && (s.WorkerImbalance < 1 || s.WorkerMaxNodes > want ||
						int(s.WorkerMeanNodes*float64(used)+0.5) != want) {
						t.Errorf("pass %d: loads max %d mean %g imbalance %g over %d workers, total %d",
							pass, s.WorkerMaxNodes, s.WorkerMeanNodes, s.WorkerImbalance, used, want)
					}
				}
			})
		}
	}
}

// The engine_worker_imbalance gauge reports the last multi-worker pass: a
// one-batch Apply, which runs on one worker, must leave it alone instead
// of resetting it to 1.
func TestWorkerImbalanceGaugeKeepsMultiWorkerPass(t *testing.T) {
	nodes, _, err := benchDeployment(1200, 7)
	if err != nil {
		t.Fatal(err)
	}
	// An odd node count cannot split evenly over four workers, so the
	// multi-worker pass's imbalance is above 1.
	nodes = nodes[:999]
	reg := obs.NewRegistry()
	Instrument(reg, nil)
	t.Cleanup(func() { Instrument(nil, nil) })
	gauge := reg.Gauge(MetricWorkerImbalance)

	e := New(Config{Workers: 4})
	res, err := e.Compute(nodes)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Stats.WorkerImbalance
	if res.Stats.Workers != 4 || !(want > 1) || gauge.Value() != want {
		t.Fatalf("4-worker Compute: workers %d, imbalance %g, gauge %g", res.Stats.Workers, want, gauge.Value())
	}
	// A join far outside the deployment dirties only itself: one batch.
	v, err := e.Apply([]Delta{{Slot: len(nodes), Key: int64(len(nodes)), Pos: geom.Pt(-1e6, -1e6), Radius: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if v.Stats.Workers != 1 || v.Stats.Dirty != 1 {
		t.Fatalf("isolated join ran on %d workers over %d dirty nodes, want 1 and 1", v.Stats.Workers, v.Stats.Dirty)
	}
	if got := gauge.Value(); got != want {
		t.Errorf("gauge after a one-worker Apply = %g, want the 4-worker pass's %g", got, want)
	}
}
