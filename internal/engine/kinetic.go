package engine

import (
	"sort"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
)

// This file is the engine half of kinetic repair (the skyline half lives in
// internal/skyline/kinetic.go). Under continuous mobility most dirty nodes
// did not move themselves — a neighbor slid a little — so the skyline in
// their kinetic state is one or two arc surgeries away from correct.
// updateNode diffs the node's current neighborhood against the local set
// computeNode last built (gained / lost / moved neighbors) and patches
// that skyline with InsertDiskInto / RemoveDiskInto / MoveDiskInto instead
// of rebuilding it.
//
// The repair is guarded three ways, and every guard falls back to the
// always-correct full recompute: (1) nodes that moved themselves, have no
// valid kinetic state, or whose diff is too large to plausibly beat a
// rebuild recompute up front; (2) any degenerate decision during surgery —
// an envelope tie within geom.RhoEps, a dropped sliver, a hub-tangent disk
// — sets the tie flag and abandons the repair, because the repaired
// skyline could legitimately pick a different (equally maximal)
// representative than a fresh compute in key order, and the engine's
// contract is element-identical forwarding sets; (3) the repaired skyline
// must pass the same runtime invariant check a fresh one does. Fallbacks
// are counted in Stats.RepairFallbacks.

// repairMaxDiffFactor gates the repair: surgery runs only when
// changes * repairMaxDiffFactor ≤ |cached disks|. Each surgery touches the
// arcs its span overlaps plus a candidate scan, so past roughly a third of
// the neighborhood the O(k log k) rebuild wins.
const repairMaxDiffFactor = 3

// updateNode brings node u up to date during a pass: kinetic repair when
// the cached state allows it, full recompute otherwise. movedMark is
// Apply's per-pass "did this slot change" table; a bulk pass passes nil,
// since no kinetic state is valid there.
//
//mldcs:hotpath
func (e *Engine) updateNode(u int, sc *scratch, movedMark []bool) {
	st := &e.kin[u]
	if !st.valid || movedMark[u] {
		e.recomputeNode(u, sc)
		return
	}

	// Diff the neighborhood from Apply's per-node candidate list instead
	// of a grid query: for a node that did not move itself, link changes
	// can only come from this pass's changed slots, and Apply recorded
	// exactly those in e.updCand[u] — the old-neighbor loop covers leavers
	// and stayers (the link relation is symmetric: dist within both
	// radii), the visit-from-new-position loop covers joiners. The direct
	// predicate below is the grid gather's, bit for bit: VisitWithin
	// filters its cell window with the same geom.LinkWithin2 call before
	// the Reaches check. oldIDs, the neighbor list the last pass published,
	// is sorted and holds exactly st.ids's nodes while st is valid.
	hub := *e.out.node(u)
	oldIDs := e.out.nbrs(u)
	sc.cands = append(sc.cands[:0], e.updCand[u]...)
	sort.Ints(sc.cands)
	sc.lost, sc.gained, sc.movedNb = sc.lost[:0], sc.gained[:0], sc.movedNb[:0]
	prev := -1
	for _, c := range sc.cands {
		if c == prev {
			continue // updCand may list a mover twice (old and new neighbor)
		}
		prev = c
		nc := e.out.node(c)
		linked := nc.Radius > 0 && // a slot that left links to nobody
			geom.LinkWithin2(nc.Pos.Dist2(hub.Pos), hub.Radius) &&
			geom.Reaches(nc.Pos, hub.Pos, nc.Radius)
		i := sort.SearchInts(oldIDs, c)
		was := i < len(oldIDs) && oldIDs[i] == c
		switch {
		case linked && was:
			sc.movedNb = append(sc.movedNb, c)
		case linked:
			sc.gained = append(sc.gained, c)
		case was:
			sc.lost = append(sc.lost, c)
		}
	}
	// Rebuild the current neighbor list: oldIDs minus lost plus gained.
	// All three are sorted, so one linear merge keeps sc.ids sorted —
	// identical to what the grid gather plus sort produced.
	sc.ids = sc.ids[:0]
	gi, li := 0, 0
	for _, v := range oldIDs {
		if li < len(sc.lost) && sc.lost[li] == v {
			li++
			continue
		}
		for gi < len(sc.gained) && sc.gained[gi] < v {
			sc.ids = append(sc.ids, sc.gained[gi])
			gi++
		}
		sc.ids = append(sc.ids, v)
	}
	sc.ids = append(sc.ids, sc.gained[gi:]...)
	changes := len(sc.lost) + len(sc.gained) + len(sc.movedNb)
	if changes == 0 {
		// Dirty but unchanged: a neighbor moved without crossing any link
		// boundary of u... which still changes u's local set only if the
		// mover is a neighbor — and then it is in movedNb. Nothing to do.
		pg, slot := e.out.at(u)
		pg.nbrs[slot] = keepInts(pg.nbrs[slot], sc.ids)
		e.repaired.Add(1)
		return
	}
	if changes*repairMaxDiffFactor > len(st.disks) {
		e.recomputeNode(u, sc)
		return
	}

	var nodeSpan obs.Span
	m := engInstr.Load()
	var t0 time.Time
	if m != nil {
		//mldcslint:allow hotpathalloc span begin runs only with instrumentation attached; sampling keeps the steady path quiet
		nodeSpan = m.spanRepair.Begin()
		t0 = time.Now()
	}

	// Arc surgery. Order matters only for bookkeeping: removals first
	// (swap-compacting the parallel ids/disks arrays), then in-place moves,
	// then insertions at the tail. Any tie abandons the repair.
	tie := false
	for _, v := range sc.lost {
		slot := findSlot(st.ids, v)
		diskIdx := slot + 1
		sc.ksl = sc.sky.RemoveDiskInto(sc.ksl, st.disks, st.sl, diskIdx, &tie)
		st.sl = append(st.sl[:0], sc.ksl...)
		last := len(st.disks) - 1
		if diskIdx != last {
			st.disks[diskIdx] = st.disks[last]
			st.ids[slot] = st.ids[last-1]
			for i := range st.sl {
				if st.sl[i].Disk == last {
					st.sl[i].Disk = diskIdx
				}
			}
		}
		st.disks = st.disks[:last]
		st.ids = st.ids[:last-1]
		if tie {
			break
		}
	}
	if !tie {
		for _, v := range sc.movedNb {
			diskIdx := findSlot(st.ids, v) + 1
			st.disks[diskIdx] = e.out.node(v).Disk().Translate(hub.Pos)
			sc.ksl = sc.sky.MoveDiskInto(sc.ksl, st.disks, st.sl, diskIdx, &tie)
			st.sl = append(st.sl[:0], sc.ksl...)
			if tie {
				break
			}
		}
	}
	if !tie {
		for _, v := range sc.gained {
			st.ids = append(st.ids, v)
			st.disks = append(st.disks, e.out.node(v).Disk().Translate(hub.Pos))
			sc.ksl = sc.sky.InsertDiskInto(sc.ksl, st.disks, st.sl, len(st.disks)-1, &tie)
			st.sl = append(st.sl[:0], sc.ksl...)
			if tie {
				break
			}
		}
	}
	if !tie {
		if ierr := checkInvariants(st.sl, len(st.disks)); ierr != nil {
			tie = true
		}
	}
	if tie {
		st.valid = false
		e.repairFB.Add(1)
		if nodeSpan.Sampled() {
			//mldcslint:allow hotpathalloc span finalization runs only for sampled spans, off the steady path
			nodeSpan.End(map[string]any{"node": u, "changes": changes, "abandoned": true})
		}
		e.recomputeNode(u, sc)
		return
	}

	pg, slot := e.out.at(u)
	pg.nbrs[slot] = keepInts(pg.nbrs[slot], sc.ids)
	e.writeForwarding(u, st, sc)
	e.repaired.Add(1)
	if m != nil {
		m.repairSeconds.Observe(time.Since(t0))
		if nodeSpan.Sampled() {
			//mldcslint:allow hotpathalloc span finalization runs only for sampled spans, off the steady path
			nodeSpan.End(map[string]any{"node": u, "changes": changes, "arcs": len(st.sl)})
		}
	}
}

// recomputeNode is updateNode's slow path: the ordinary full per-node
// compute, which rebuilds the kinetic state, counted.
//
//mldcs:hotpath
func (e *Engine) recomputeNode(u int, sc *scratch) {
	e.recomputed.Add(1)
	e.computeNode(u, sc)
}

// findSlot returns the position of v in ids. The caller guarantees
// presence; swap-compaction leaves ids unsorted, so this is a linear scan
// — bounded by the neighborhood size, and only run for the handful of
// changed neighbors of a repaired node.
//
//mldcs:hotpath
func findSlot(ids []int, v int) int {
	for i, id := range ids {
		if id == v {
			return i
		}
	}
	panic("engine: kinetic state lost a neighbor id")
}
