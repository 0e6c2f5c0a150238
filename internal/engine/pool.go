package engine

import (
	"runtime"
	"sync"
)

// This file is the engine's parallel work-distribution layer. Every pass —
// Compute's bulk pass over the present slots and Apply's pass over the
// dirty set — groups its nodes by owning grid cell into batches
// (buildBatches) and hands the batches to the workers through one shared
// atomic cursor (forEachBatch): a worker takes the next batch index until
// none is left. Theorem 3 makes a node's MLDCS a function of its own local
// disk set alone, so the batches are independent and need no scheduling
// beyond that; a skewed pass (one hot zipf cell) rebalances by itself,
// because whichever worker is free takes the next batch.
//
// Work distribution never affects results: each node's outputs land in
// its own slot, so any interleaving produces bit-identical forwarding
// sets — the differential and fuzz harnesses run the full workers matrix
// to pin that.

// maxBatch caps a cell batch, so a hot mega-cell (a zipf hotspot
// collapsing thousands of nodes into one grid cell) becomes several
// batches that several workers share instead of serializing the pass tail
// on one.
const maxBatch = 128

// forEachBatch runs fn(i, sc) for every batch index in [0, n) on the
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

// batchEnt pairs a node with its owning grid cell's packed coordinates,
// the key a pass batches by.
type batchEnt struct {
	key  uint64
	node int32
}

// cellBatch is one work item: entries [lo, hi) of the sorted e.batchEnts,
// all in the same grid cell (split at maxBatch).
type cellBatch struct {
	lo, hi int32
}

// buildBatches groups a pass's node list by owning grid cell into bounded
// batches: sort the (cell, node) pairs with the reusable bottom-up merge
// sort (stable, allocation-free once warm), then cut the runs. Batching by
// cell gives each worker spatially local nodes — their neighbor reads hit
// the same grid cells — and makes the work item coarse enough that taking
// it from the cursor does not dominate a small pass.
func (e *Engine) buildBatches(list []int) {
	e.batchEnts = e.batchEnts[:0]
	for _, u := range list {
		x, y := e.grid.CellCoord(u)
		key := uint64(uint32(x))<<32 | uint64(uint32(y))
		e.batchEnts = append(e.batchEnts, batchEnt{key: key, node: int32(u)})
	}
	sortBatchEnts(e)
	e.batches = e.batches[:0]
	for lo := 0; lo < len(e.batchEnts); {
		hi := lo + 1
		for hi < len(e.batchEnts) && e.batchEnts[hi].key == e.batchEnts[lo].key && hi-lo < maxBatch {
			hi++
		}
		e.batches = append(e.batches, cellBatch{lo: int32(lo), hi: int32(hi)})
		lo = hi
	}
}

// sortBatchEnts orders e.batchEnts by (cell key, node id) with a bottom-up
// merge sort through e.batchTmp, allocation-free once the buffer is warm.
// The node-id tiebreak makes the batch layout deterministic.
func sortBatchEnts(e *Engine) {
	n := len(e.batchEnts)
	if n < 2 {
		return
	}
	if cap(e.batchTmp) < n {
		e.batchTmp = make([]batchEnt, n)
	}
	src, dst := e.batchEnts[:n], e.batchTmp[:n]
	inPlace := true
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := min(lo+width, n)
			hi := min(lo+2*width, n)
			mergeBatchEnts(dst[lo:hi], src[lo:mid], src[mid:hi])
		}
		src, dst = dst, src
		inPlace = !inPlace
	}
	if !inPlace {
		copy(e.batchEnts, src)
	}
}

// mergeBatchEnts merges sorted runs a and b into dst, taking from a on ties.
func mergeBatchEnts(dst, a, b []batchEnt) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if b[j].key < a[i].key || (b[j].key == a[i].key && b[j].node < a[i].node) {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}
