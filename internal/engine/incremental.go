package engine

import (
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/obs"
)

// Update advances the engine to new node states without redoing the whole
// network: it diffs the node slice against the engine's current state and
// hands the changed nodes to Move. This is the consumption path for
// internal/mobility deltas — step the model, hand the fresh snapshot to
// Update.
//
// The node count and ID assignment must match the last Compute; positions
// and radii may change. Returns the flat rendering of the published View,
// whose Stats carry the Moved/Dirty accounting.
func (e *Engine) Update(nodes []network.Node) (*Result, error) {
	if e.grid == nil {
		return nil, fmt.Errorf("engine: Update called before Compute")
	}
	if len(nodes) != e.out.n {
		return nil, fmt.Errorf("engine: Update with %d nodes, engine has %d", len(nodes), e.out.n)
	}
	in := e.updIn[:0]
	for i, n := range nodes {
		if n.ID != i {
			return nil, fmt.Errorf("engine: node at position %d has ID %d; IDs must be dense", i, n.ID)
		}
		if !(n.Radius > 0) {
			return nil, fmt.Errorf("engine: node %d has non-positive radius %g", i, n.Radius)
		}
		cur := e.out.node(i)
		//mldcslint:allow floatcmp bitwise change detection: any bit difference marks the node dirty, which is always safe
		if n.Pos != cur.Pos || n.Radius != cur.Radius {
			in = append(in, n)
		}
	}
	e.updIn = in
	v, err := e.Move(in)
	if err != nil {
		return nil, err
	}
	return v.Result(), nil
}

// Move advances the engine by the nodes that changed since the last pass
// and publishes the resulting View. Each entry is a dense node ID from the
// last Compute with the node's new position and radius; an entry equal to
// the node's current state is ignored, and when an ID repeats the last
// entry wins. It implements the paper's §5.1.1 point that 1-hop
// structures are cheap to maintain under mobility: a node's forwarding set
// can only change when its own local set changes, so the dirty set is
// exactly the moved nodes plus their old and new neighbors, and only those
// are repaired or recomputed. Every step — marking, the pass, the
// Stats.Edges bookkeeping and the page copies of publishing — is
// O(moved + dirty); the one N-proportional step is the View's copy of the
// page directory, N/pageSize pointers.
func (e *Engine) Move(moved []network.Node) (*View, error) {
	m := engInstr.Load()
	start := time.Now()

	if e.grid == nil {
		return nil, fmt.Errorf("engine: Move called before Compute")
	}
	n := e.out.n
	for _, nd := range moved {
		if nd.ID < 0 || nd.ID >= n {
			return nil, fmt.Errorf("engine: moved node ID %d out of range [0, %d)", nd.ID, n)
		}
		if !(nd.Radius > 0) {
			return nil, fmt.Errorf("engine: node %d has non-positive radius %g", nd.ID, nd.Radius)
		}
	}
	// The per-node tables are all-false between passes (reset entry-wise
	// below), so they only ever grow here.
	if cap(e.updMovedMark) < n {
		e.updMovedMark = make([]bool, n)
		e.updDirty = make([]bool, n)
		e.updCand = make([][]int, n)
	}
	movedMark := e.updMovedMark[:n]
	dirty := e.updDirty[:n]
	cand := e.updCand[:n]

	// Write the new states, keeping each node's pre-pass state from its
	// first entry, then drop the nodes that ended where they started.
	ids, prev := e.updMoved[:0], e.updPrev[:0]
	for _, nd := range moved {
		u := nd.ID
		if !movedMark[u] {
			movedMark[u] = true
			ids = append(ids, u)
			prev = append(prev, *e.out.node(u))
		}
		e.out.own(u)
		*e.out.node(u) = nd
	}
	kept := ids[:0]
	for j, u := range ids {
		cur := e.out.node(u)
		//mldcslint:allow floatcmp bitwise change detection: any bit difference marks the node dirty, which is always safe
		if cur.Pos == prev[j].Pos && cur.Radius == prev[j].Radius {
			movedMark[u] = false
			continue
		}
		kept = append(kept, u)
	}
	ids = kept
	e.updMoved, e.updPrev = ids, prev

	// Dirty = every moved node, its old neighbors (who may have lost it or
	// see it at a new relative position), and — after the grid reflects the
	// moves — its new neighbors (who may have gained it). Everyone else's
	// local set is bitwise unchanged. cand[v] collects the movers that may
	// have changed v's link set, for updateNode's grid-free repair gather.
	list := e.updList[:0]
	for _, u := range ids {
		if !dirty[u] {
			dirty[u] = true
			list = append(list, u)
		}
		for _, v := range e.out.nbrs(u) {
			if !dirty[v] {
				dirty[v] = true
				list = append(list, v)
			}
			cand[v] = append(cand[v], u)
		}
	}
	for _, u := range ids {
		e.grid.Move(u, e.out.node(u).Pos)
	}
	for _, u := range ids {
		hub := *e.out.node(u)
		e.grid.VisitWithin(hub.Pos, hub.Radius, func(v int) {
			// Same reverse-link predicate as computeNode and network.Build:
			// the dirty set must include exactly the nodes that gained u as
			// a neighbor under the canonical link comparison.
			if nv := e.out.node(v); v != u && geom.Reaches(nv.Pos, hub.Pos, nv.Radius) {
				if !dirty[v] {
					dirty[v] = true
					list = append(list, v)
				}
				cand[v] = append(cand[v], u)
			}
		})
	}
	e.updList = list

	// Only dirty nodes change their neighbor count, so the edge total moves
	// by their before/after difference.
	edges := e.stats.Edges
	for _, u := range list {
		edges -= len(e.out.nbrs(u))
	}
	hits0, misses0 := e.cache.counts()
	e.fallbacks.Store(0)
	e.repaired.Store(0)
	e.recomputed.Store(0)
	e.repairFB.Store(0)
	var tickSpan obs.Span
	if m != nil {
		tickSpan = m.spanUpdate.Begin()
	}
	workers, passErr := e.runUpdatePass(list, movedMark)
	for _, u := range ids {
		movedMark[u] = false
	}
	// Every cand append above was paired with a dirty mark, so resetting
	// over the dirty list clears exactly the touched entries in O(dirty).
	for _, u := range list {
		dirty[u] = false
		cand[u] = cand[u][:0]
		edges += len(e.out.nbrs(u))
	}
	if passErr != nil {
		return nil, passErr
	}
	hits1, misses1 := e.cache.counts()

	e.stats = Stats{
		Nodes:       n,
		Edges:       edges,
		Cells:       e.grid.NumCells(),
		Workers:     workers,
		CacheHits:   hits1 - hits0,
		CacheMisses: misses1 - misses0,
		Moved:       len(ids),
		Dirty:       len(list),
		Fallbacks:   int(e.fallbacks.Load()),

		Repaired:        int(e.repaired.Load()),
		Recomputed:      int(e.recomputed.Load()),
		RepairFallbacks: int(e.repairFB.Load()),
	}
	e.stats.recordLoads(e.lastLoads)
	v := e.publish()
	if m != nil {
		m.recordUpdate(e.stats, time.Since(start), e.cache)
	}
	if tickSpan.Sampled() {
		tickSpan.End(map[string]any{
			"moved": e.stats.Moved,
			"dirty": e.stats.Dirty,
		})
	}
	return v, nil
}

// runUpdatePass fans the dirty list over the worker pool as per-cell
// batches: dirty nodes are grouped by owning grid cell (buildUpdateBatches)
// and each batch is one claimable work item, so a tick's repair work runs
// in parallel with cell-level locality instead of sequentially per node.
// Work distribution cannot change results — each node's repair touches
// only that node's state — so any claiming/stealing order produces the
// same snapshot; the kinetic differential tests pin that across the
// workers matrix. Split out from Move so the allocation regression tests
// can pin the batching + claiming machinery at zero steady-state
// allocations without publishing a View.
func (e *Engine) runUpdatePass(list []int, movedMark []bool) (int, error) {
	// Make every page the pass writes private first, sequentially: own
	// rewrites directory entries, which the workers read unsynchronized.
	for _, u := range list {
		e.out.own(u)
	}
	e.buildUpdateBatches(list)
	e.updPassMark = movedMark
	e.updPassErr.reset()
	// The pass closure and error collector live on the engine so a
	// steady-state tick allocates nothing: a fresh closure per call would
	// escape to the heap through the worker goroutines.
	if e.updPassFn == nil {
		e.updPassFn = func(i int, sc *scratch) {
			sp := e.updSpans[i]
			batch := e.updEnts[sp.lo:sp.hi]
			for _, ent := range batch {
				if err := e.updateNode(int(ent.node), sc, e.updPassMark); err != nil {
					e.updPassErr.set(err)
					break
				}
			}
			sc.load.nodes += len(batch)
		}
	}
	workers := e.forEachTask(len(e.updSpans), e.updPassFn)
	e.updPassMark = nil
	return workers, e.updPassErr.get()
}
