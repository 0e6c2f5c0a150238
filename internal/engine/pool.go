package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the engine's parallel work-distribution layer. The original
// pool handed tasks out one at a time through a single atomic cursor, which
// has two scaling failures: every worker contends on the same cache line
// for every task, and the accounting cannot say which worker did what. The
// driver here partitions the task index space into contiguous per-worker
// ranges, lets each worker claim chunks of `grain` tasks from its own range
// through a range-local padded cursor, and — when a worker drains its range
// — steals grain-sized chunks from the most-loaded peer. Chunked claiming
// amortizes the cursor traffic; stealing keeps a skewed workload (one hot
// mega-cell, one contended hotspot) from parking the pass on one worker.
//
// Work distribution never affects results: tasks are independent per-node
// (or per-cell-batch) computations whose outputs land in per-node slots, so
// any interleaving produces bit-identical forwarding sets — the
// differential and fuzz harnesses run the full workers matrix to pin that.

const (
	// chunksPerWorker tunes the claim grain: each worker's range is split
	// into about this many chunks, so the grain adapts to tasks-per-worker
	// (large passes claim big chunks, small passes stay fine-grained for
	// balance).
	chunksPerWorker = 8
	// maxClaimGrain caps the grain so a huge pass still rebalances: a
	// stolen chunk is at most this many tasks.
	maxClaimGrain = 64
	// maxCellBatch splits a grid cell into multiple work items when it
	// holds more nodes than this, so one hot mega-cell (a zipf hotspot
	// collapsing thousands of nodes into one cell) is processed by many
	// workers instead of serializing the pass tail on one.
	maxCellBatch = 256
	// maxUpdateBatch bounds an Update cell batch the same way.
	maxUpdateBatch = 128
)

// workerLoad books one worker's share of a pass: work items (cell batches)
// and nodes processed, and chunks claimed from another worker's range.
type workerLoad struct {
	items  int
	nodes  int
	steals int
}

// taskQueue is one worker's claimable task range [lo, hi) with an atomic
// claim cursor (an offset from lo). The struct is padded to a cache line
// so the cursors of adjacent queues never false-share: thieves hammer a
// victim's cursor without disturbing its neighbors.
type taskQueue struct {
	lo, hi int64
	next   atomic.Int64
	_      [40]byte
}

// claim takes the next chunk of up to grain tasks. The cursor only grows,
// so concurrent claims (owner and thieves) partition the range exactly.
func (q *taskQueue) claim(grain int64) (lo, hi int64, ok bool) {
	n := q.hi - q.lo
	end := q.next.Add(grain)
	start := end - grain
	if start >= n {
		return 0, 0, false
	}
	if end > n {
		end = n
	}
	return q.lo + start, q.lo + end, true
}

// remaining reports how many unclaimed tasks the queue still holds.
func (q *taskQueue) remaining() int64 {
	if r := (q.hi - q.lo) - q.next.Load(); r > 0 {
		return r
	}
	return 0
}

// scratchFor returns worker w's persistent scratch, growing the pool on
// demand. Scratches persist across passes so their buffers stay warm for
// the lifetime of the engine.
func (e *Engine) scratchFor(w int) *scratch {
	for len(e.scratches) <= w {
		e.scratches = append(e.scratches, &scratch{})
	}
	return e.scratches[w]
}

// forEachTask runs fn(i, sc) for every task index in [0, n) on the
// configured worker count, with chunked claiming and bounded work
// stealing. Each worker owns one persistent scratch; fn must add the
// nodes it processed to sc.load.nodes (the driver accounts items).
// Per-worker loads for the pass are left in e.lastLoads. Returns the
// number of workers used.
func (e *Engine) forEachTask(n int, fn func(i int, sc *scratch)) int {
	if n == 0 {
		e.lastLoads = e.lastLoads[:0]
		return 0
	}
	workers := e.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		sc := e.scratchFor(0)
		for i := 0; i < n; i++ {
			fn(i, sc)
		}
		sc.load.items += n
		e.collectLoads(1)
		return 1
	}

	grain := int64(n / (workers * chunksPerWorker))
	if grain < 1 {
		grain = 1
	}
	if grain > maxClaimGrain {
		grain = maxClaimGrain
	}
	if cap(e.queues) < workers {
		e.queues = make([]taskQueue, workers)
	}
	queues := e.queues[:workers]
	for w := range queues {
		queues[w].lo = int64(w * n / workers)
		queues[w].hi = int64((w + 1) * n / workers)
		queues[w].next.Store(0)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		sc := e.scratchFor(w)
		wg.Add(1)
		go func(w int, sc *scratch) {
			defer wg.Done()
			runWorker(w, queues, grain, fn, sc)
		}(w, sc)
	}
	wg.Wait()
	e.collectLoads(workers)
	return workers
}

// runWorker drains worker w's own range in grain-sized chunks, then
// steals chunks from the most-loaded peer until no queue has work. The
// steal loop is bounded: every successful claim consumes at least one
// task and cursors only grow, so a failed claim (a race with the victim)
// means the next scan sees that queue empty.
func runWorker(w int, queues []taskQueue, grain int64, fn func(i int, sc *scratch), sc *scratch) {
	own := &queues[w]
	for {
		lo, hi, ok := own.claim(grain)
		if !ok {
			break
		}
		for i := lo; i < hi; i++ {
			fn(int(i), sc)
		}
		sc.load.items += int(hi - lo)
	}
	for {
		best, bestRem := -1, int64(0)
		for v := range queues {
			if v == w {
				continue
			}
			if r := queues[v].remaining(); r > bestRem {
				best, bestRem = v, r
			}
		}
		if best < 0 {
			return
		}
		lo, hi, ok := queues[best].claim(grain)
		if !ok {
			continue // raced with the victim; rescan
		}
		sc.load.steals++
		for i := lo; i < hi; i++ {
			fn(int(i), sc)
		}
		sc.load.items += int(hi - lo)
	}
}

// collectLoads moves the per-worker load books of this pass into
// e.lastLoads and resets them for the next pass.
func (e *Engine) collectLoads(workers int) {
	e.lastLoads = e.lastLoads[:0]
	for w := 0; w < workers; w++ {
		sc := e.scratches[w]
		e.lastLoads = append(e.lastLoads, sc.load)
		sc.load = workerLoad{}
	}
}

// recordLoads derives the pass's load-imbalance summary from the
// per-worker books: max and mean work items (cell batches) and nodes per
// worker, total stolen chunks, and the imbalance ratio max/mean nodes
// (1.0 = perfectly balanced; the quantity the engine_worker_imbalance
// gauge exports).
func (s *Stats) recordLoads(loads []workerLoad) {
	if len(loads) == 0 {
		return
	}
	var items, nodes, steals, maxItems, maxNodes int
	for _, l := range loads {
		items += l.items
		nodes += l.nodes
		steals += l.steals
		if l.items > maxItems {
			maxItems = l.items
		}
		if l.nodes > maxNodes {
			maxNodes = l.nodes
		}
	}
	s.WorkerMaxCells = maxItems
	s.WorkerMeanCells = float64(items) / float64(len(loads))
	s.WorkerMaxNodes = maxNodes
	s.WorkerMeanNodes = float64(nodes) / float64(len(loads))
	s.Steals = steals
	if s.WorkerMeanNodes > 0 {
		s.WorkerImbalance = float64(maxNodes) / s.WorkerMeanNodes
	}
}

// cellSpan is one Compute work item: nodes [lo, hi) of grid cell `cell`.
// Cells larger than maxCellBatch become several items (mega-cell
// splitting).
type cellSpan struct {
	cell   int32
	lo, hi int32
}

// buildComputeItems flattens the grid cells into bounded work items in
// e.items (reused across passes).
func (e *Engine) buildComputeItems(cells [][]int) {
	e.items = e.items[:0]
	for ci, cell := range cells {
		for lo := 0; lo < len(cell); lo += maxCellBatch {
			hi := lo + maxCellBatch
			if hi > len(cell) {
				hi = len(cell)
			}
			e.items = append(e.items, cellSpan{cell: int32(ci), lo: int32(lo), hi: int32(hi)})
		}
	}
}

// updEnt pairs a dirty node with its owning grid cell's packed
// coordinates, the sort key Update batches by.
type updEnt struct {
	key  uint64
	node int32
}

// updSpan is one Update work item: entries [lo, hi) of the sorted
// e.updEnts, all in the same grid cell (split at maxUpdateBatch).
type updSpan struct {
	lo, hi int32
}

// buildUpdateBatches groups the dirty list by owning grid cell into
// bounded batches: sort the (cell, node) pairs with the reusable
// bottom-up merge sort (stable, allocation-free once warm), then cut the
// runs. Batching by cell gives each worker spatially local nodes — their
// neighbor reads hit the same grid cells — and makes the work item
// coarse enough that claiming does not dominate a small dirty set.
func (e *Engine) buildUpdateBatches(list []int) {
	e.updEnts = e.updEnts[:0]
	for _, u := range list {
		x, y := e.grid.CellCoord(u)
		key := uint64(uint32(x))<<32 | uint64(uint32(y))
		e.updEnts = append(e.updEnts, updEnt{key: key, node: int32(u)})
	}
	sortUpdEnts(e)
	e.updSpans = e.updSpans[:0]
	for lo := 0; lo < len(e.updEnts); {
		hi := lo + 1
		for hi < len(e.updEnts) && e.updEnts[hi].key == e.updEnts[lo].key && hi-lo < maxUpdateBatch {
			hi++
		}
		e.updSpans = append(e.updSpans, updSpan{lo: int32(lo), hi: int32(hi)})
		lo = hi
	}
}

// sortUpdEnts orders e.updEnts by (cell key, node id) with a bottom-up
// merge sort through e.updEntsTmp — same zero-allocation scheme as
// sortTuples. The node-id tiebreak makes the batch layout deterministic.
func sortUpdEnts(e *Engine) {
	n := len(e.updEnts)
	if n < 2 {
		return
	}
	if cap(e.updEntsTmp) < n {
		e.updEntsTmp = make([]updEnt, n)
	}
	src, dst := e.updEnts[:n], e.updEntsTmp[:n]
	inPlace := true
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := min(lo+width, n)
			hi := min(lo+2*width, n)
			mergeUpdEnts(dst[lo:hi], src[lo:mid], src[mid:hi])
		}
		src, dst = dst, src
		inPlace = !inPlace
	}
	if !inPlace {
		copy(e.updEnts, src)
	}
}

// mergeUpdEnts merges sorted runs a and b into dst, taking from a on ties.
func mergeUpdEnts(dst, a, b []updEnt) {
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
