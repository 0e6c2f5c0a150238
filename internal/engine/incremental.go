package engine

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/skyline"
)

// Update advances the engine to new node states without redoing the whole
// network: it diffs all N nodes against the engine's current state, hands
// the changed ones to Apply and renders the flat Result, so a pass costs
// O(N) where Apply alone costs O(changed + dirty). A caller that knows
// which slots changed calls Apply; every driver in this module does,
// except the service benchmark's replay (svcbench/trace.go), which is the
// one reason Update stays exported. The differential tests use it to feed
// whole node slices.
//
// The node count must match the engine's slot range and node i is slot i
// under key i, as Compute assigns them; positions and radii may change.
// Returns the flat rendering of the published View, whose Stats carry the
// Moved/Dirty accounting.
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
		// An absent slot has radius 0, so it always differs.
		pg, slot := e.out.at(i)
		cur := &pg.node[slot]
		//mldcslint:allow floatcmp bitwise change detection: any bit difference marks the node dirty, which is always safe
		if n.Pos != cur.Pos || n.Radius != cur.Radius || pg.key[slot] != int64(i) {
			in = append(in, Delta{Slot: i, Key: int64(i), Pos: n.Pos, Radius: n.Radius})
		}
	}
	e.updIn = in
	v, err := e.Apply(in)
	if err != nil {
		return nil, err
	}
	return v.Result(), nil
}

// sameState reports whether two slot states are bitwise equal: both absent,
// or both present with the same key, position and radius.
func sameState(a, b Delta) bool {
	if a.Leave || b.Leave {
		return a.Leave == b.Leave
	}
	//mldcslint:allow floatcmp bitwise change detection: any bit difference marks the node dirty, which is always safe
	return a.Key == b.Key && a.Pos == b.Pos && a.Radius == b.Radius
}

// Apply advances the engine by the slots that changed since the last pass
// and publishes the resulting View. Each entry is one slot's new state
// (see Delta): a join fills an absent slot, a leave empties a present
// one, and a move changes a present slot's disk or key; an entry equal to
// the slot's current state is ignored, and when a slot repeats the last
// entry wins. Slots are the caller's stable node IDs: a slot may lie past
// the current range (growing it; every new slot starts absent) as long as
// it is below the range's end plus len(ds), which a caller that appends
// new slots one at a time never exceeds. A leave and a join that reuse
// one slot in the same call is a move to wherever the joiner is.
//
// It implements the paper's §5.1.1 point that 1-hop structures are cheap
// to maintain: a node's forwarding set can only change when its own local
// set changes, so the dirty set is exactly the present changed slots plus
// their old and new neighbors, and only those are repaired or recomputed.
// Every step — marking, the pass, the Stats.Edges bookkeeping and the page
// copies of publishing — is O(changed + dirty); the one N-proportional
// step is the View's copy of the page directory, N/pageSize pointers.
//
// On an engine with no present node (before the first pass, or after an
// empty one) Apply has no grid to update and runs the full bulk pass of
// Compute over the slots instead.
func (e *Engine) Apply(ds []Delta) (*View, error) {
	limit := e.out.n + len(ds)
	n := e.out.n
	for _, d := range ds {
		if d.Slot < 0 || d.Slot >= limit {
			return nil, fmt.Errorf("engine: slot %d out of range [0, %d)", d.Slot, limit)
		}
		if !d.Leave && !(d.Radius > 0) {
			return nil, fmt.Errorf("engine: slot %d has non-positive radius %g", d.Slot, d.Radius)
		}
		n = max(n, d.Slot+1)
	}
	if e.grid == nil {
		e.out.reset(n)
		for _, d := range ds {
			e.out.write(d)
		}
		return e.bulk(), nil
	}

	m := engInstr.Load()
	start := time.Now()
	if n > e.out.n {
		e.out.grow(n)
		e.kin = append(e.kin, make([]skyline.Skyline, n-len(e.kin))...)
	}
	// The per-slot tables are all-false between passes (reset entry-wise
	// below), so they only ever grow here, doubling so a growing network
	// reallocates them O(log N) times.
	if cap(e.updMovedMark) < n {
		c := max(n, 2*cap(e.updMovedMark))
		e.updMovedMark = make([]bool, c)
		e.updDirty = make([]bool, c)
	}
	movedMark := e.updMovedMark[:n]
	dirty := e.updDirty[:n]

	// Write the new states, keeping each slot's pre-pass state from its
	// first entry, then drop the slots that ended where they started.
	ids, prev := e.updMoved[:0], e.updPrev[:0]
	for _, d := range ds {
		u := d.Slot
		if !movedMark[u] {
			movedMark[u] = true
			ids = append(ids, u)
			prev = append(prev, e.out.state(u))
		}
		e.out.own(u)
		e.out.write(d)
	}
	kept, keptPrev := ids[:0], prev[:0]
	for j, u := range ids {
		if sameState(e.out.state(u), prev[j]) {
			movedMark[u] = false
			continue
		}
		kept, keptPrev = append(kept, u), append(keptPrev, prev[j])
	}
	ids, prev = kept, keptPrev
	e.updMoved, e.updPrev = ids, prev

	// Dirty = every present changed slot, its old neighbors (who may have
	// lost it or see it at a new relative position), and — after the grid
	// reflects the changes — its new neighbors (who may have gained it).
	// Everyone else's local set is bitwise unchanged. A slot that left is
	// not dirty: it has no local set, so its outputs are simply emptied.
	// cand collects, per dirty node, the changed slots that may have
	// changed its link set, for updateNode's grid-free repair gather.
	list, cand := e.updList[:0], e.updCand[:0]
	edges := e.stats.Edges
	for j, u := range ids {
		for _, v := range e.out.nbrs(u) {
			if !e.out.present(v) {
				continue // left this pass too
			}
			if !dirty[v] {
				dirty[v] = true
				list = append(list, v)
			}
			cand = append(cand, candidate(v, j))
		}
		was, now := !prev[j].Leave, e.out.present(u)
		switch {
		case was && now:
			e.grid.Move(u, e.out.node(u).Pos)
		case now:
			e.grid.Insert(u, e.out.node(u).Pos)
			e.live++
		case was:
			e.grid.Remove(u)
			e.live--
			pg, slot := e.out.at(u)
			edges -= len(pg.nbrs[slot])
			pg.nbrs[slot], pg.fwd[slot], pg.hubIn[slot] = nil, nil, false
			e.kin[u] = nil
		}
		if now && !dirty[u] {
			dirty[u] = true
			list = append(list, u)
		}
	}
	for j, u := range ids {
		hub := *e.out.node(u)
		if !(hub.Radius > 0) {
			continue
		}
		e.grid.VisitWithin(hub.Pos, hub.Radius, func(v int) {
			// Same reverse-link predicate as computeNode and network.Build:
			// the dirty set must include exactly the nodes that gained u as
			// a neighbor under the canonical link comparison.
			if nv := e.out.node(v); v != u && geom.Reaches(nv.Pos, hub.Pos, nv.Radius) {
				if !dirty[v] {
					dirty[v] = true
					list = append(list, v)
				}
				cand = append(cand, candidate(v, j))
			}
		})
	}
	slices.Sort(cand)
	e.updList, e.updCand = list, cand

	// Only dirty nodes change their neighbor count, so the edge total moves
	// by their before/after difference.
	for _, u := range list {
		edges -= len(e.out.nbrs(u))
	}
	e.fallbacks.Store(0)
	e.repaired.Store(0)
	e.recomputed.Store(0)
	e.repairFB.Store(0)
	var tickSpan obs.Span
	if m != nil {
		tickSpan = m.spanUpdate.Begin()
	}
	workers := e.runPass(list, movedMark)
	for _, u := range ids {
		movedMark[u] = false
	}
	for _, u := range list {
		dirty[u] = false
		edges += len(e.out.nbrs(u))
	}

	e.stats = Stats{
		Nodes:     e.live,
		Edges:     edges,
		Cells:     e.grid.NumCells(),
		Workers:   workers,
		Moved:     len(ids),
		Dirty:     len(list),
		Fallbacks: int(e.fallbacks.Load()),

		Repaired:        int(e.repaired.Load()),
		Recomputed:      int(e.recomputed.Load()),
		RepairFallbacks: int(e.repairFB.Load()),
	}
	e.stats.recordLoads(e.scratches[:workers])
	v := e.publish()
	if m != nil {
		m.recordUpdate(e.stats, time.Since(start))
	}
	if tickSpan.Sampled() {
		tickSpan.End(map[string]any{
			"moved": e.stats.Moved,
			"dirty": e.stats.Dirty,
		})
	}
	return v, nil
}

// candidate encodes a candidate-list entry: changed slot updPrev[j].Slot
// may have changed node v's link set. Sorting the entries groups them by
// node.
func candidate(v, j int) uint64 {
	return uint64(v)<<32 | uint64(j)
}
