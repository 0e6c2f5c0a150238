package engine

import (
	"runtime"
	"sync"
)

// This file is the engine's parallel work-distribution layer. Every pass —
// Compute's bulk pass over the present slots and Apply's pass over the
// dirty set — cuts its node list into runs of passChunk consecutive
// entries and hands the runs to the workers through one shared atomic
// cursor (forEachBatch): a worker takes the next run index until none is
// left. Theorem 3 makes a node's MLDCS a function of its own local disk set
// alone, so the runs are independent and need no scheduling beyond that; a
// skewed pass (one hot zipf cell) rebalances by itself, because whichever
// worker is free takes the next run. Locality comes from the list's own
// order: the bulk pass lists its nodes cell by cell (Grid.Cells), and Apply
// lists each changed slot's neighborhood together.
//
// Work distribution never affects results: each node's outputs land in
// its own slot, so any interleaving produces bit-identical forwarding
// sets — the differential and fuzz harnesses run the full workers matrix
// to pin that.

// passChunk is a pass's unit of work: that many consecutive entries of its
// node list. Coarse enough that taking a run from the cursor costs little
// next to solving it, fine enough that a 227-node dirty set still spreads
// over the workers.
const passChunk = 16

// forEachBatch runs fn(i, sc) for every run index in [0, n) on the
// configured worker count; the workers take indices from the shared
// cursor e.next. Worker w runs on e.scratches[w], which persists across
// passes so its buffers stay warm for the lifetime of the engine. fn books
// the nodes it processed in sc.nodes, which starts every pass at zero.
// Returns the number of workers used: their books are
// e.scratches[:workers].
func (e *Engine) forEachBatch(n int, fn func(i int, sc *scratch)) int {
	workers := e.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	for len(e.scratches) < workers {
		e.scratches = append(e.scratches, &scratch{})
	}
	for _, sc := range e.scratches[:workers] {
		sc.nodes = 0
	}
	if workers == 1 {
		sc := e.scratches[0]
		for i := 0; i < n; i++ {
			fn(i, sc)
		}
		return 1
	}
	e.next.Store(0)
	var wg sync.WaitGroup
	wg.Add(workers)
	for _, sc := range e.scratches[:workers] {
		go func(sc *scratch) {
			defer wg.Done()
			for i := int(e.next.Add(1) - 1); i < n; i = int(e.next.Add(1) - 1) {
				fn(i, sc)
			}
		}(sc)
	}
	wg.Wait()
	return workers
}

// recordLoads books the pass's per-worker load from the workers' node
// counts: the heaviest and mean share, and the imbalance ratio max/mean
// (1.0 = perfectly balanced; the quantity the engine_worker_imbalance
// gauge exports).
func (s *Stats) recordLoads(workers []*scratch) {
	total := 0
	for _, sc := range workers {
		total += sc.nodes
		s.WorkerMaxNodes = max(s.WorkerMaxNodes, sc.nodes)
	}
	if total == 0 {
		return
	}
	s.WorkerMeanNodes = float64(total) / float64(len(workers))
	s.WorkerImbalance = float64(s.WorkerMaxNodes) / s.WorkerMeanNodes
}
