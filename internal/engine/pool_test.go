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

// TestRunPassChunkBoundaries drives runPass over lists whose lengths sit
// on either side of a run boundary, with every listed node marked moved so
// that each one must be recomputed: every node of the list is recomputed
// (none dropped at a run's end, none run twice across a boundary), the
// workers book exactly the list, and the pass uses no more workers than
// it has runs.
func TestRunPassChunkBoundaries(t *testing.T) {
	nodes, _, err := benchDeployment(400, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		e := New(Config{Workers: workers})
		if _, err := e.Compute(nodes); err != nil {
			t.Fatal(err)
		}
		moved := make([]bool, len(nodes))
		for _, k := range []int{0, 1, passChunk - 1, passChunk, passChunk + 1, 3*passChunk + 5} {
			t.Run(fmt.Sprintf("workers=%d/nodes=%d", workers, k), func(t *testing.T) {
				// Every third slot, so the list is not one contiguous block.
				list := make([]int, k)
				for i := range list {
					list[i] = 3 * i
					moved[list[i]] = true
				}
				e.recomputed.Store(0)
				used := e.runPass(list, moved)
				for _, u := range list {
					moved[u] = false
				}
				if got := int(e.recomputed.Load()); got != k {
					t.Errorf("recomputed %d nodes, want %d", got, k)
				}
				booked := 0
				for _, sc := range e.scratches[:used] {
					booked += sc.nodes
				}
				if booked != k {
					t.Errorf("workers booked %d nodes, want %d", booked, k)
				}
				if runs := (k + passChunk - 1) / passChunk; used != min(workers, runs) {
					t.Errorf("pass used %d workers over %d runs, want %d", used, runs, min(workers, runs))
				}
			})
		}
	}
}

// The engine_worker_imbalance gauge reports the last multi-worker pass: a
// one-run Apply, which runs on one worker, must leave it alone instead
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
	// A join far outside the deployment dirties only itself: one run.
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
