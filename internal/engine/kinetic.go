package engine

import (
	"slices"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/skyline"
)

// This file is the engine half of kinetic repair (the skyline half lives in
// internal/skyline/kinetic.go). Under continuous mobility most dirty nodes
// did not move themselves — a neighbor slid a little — so the skyline in
// their kinetic state is one or two arc surgeries away from correct.
// updateNode diffs the node's current neighborhood against the neighbor
// list the last pass published (gained / lost / moved neighbors), rebuilds
// the local set that skyline was built over from the page store and the
// pass's pre-pass states, and patches the skyline with RemoveDiskInto /
// MoveDiskInto instead of solving the set again.
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
// changes * repairMaxDiffFactor ≤ |local set|. Each surgery touches the
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
	st := e.kin[u]
	if len(st) == 0 || movedMark[u] {
		e.recomputeNode(u, sc)
		return
	}

	// Diff the neighborhood from Apply's candidate list instead of a grid
	// query: for a node that did not move itself, link changes can only
	// come from this pass's changed slots, and Apply listed exactly those
	// for u — the old-neighbor loop covers leavers and stayers (the link
	// relation is symmetric: dist within both radii), the
	// visit-from-new-position loop covers joiners. The direct predicate
	// below is the grid gather's, bit for bit: VisitWithin filters its cell
	// window with the same geom.LinkWithin2 call before the Reaches check.
	// oldIDs is the neighbor list the last pass published, sorted; the
	// stored skyline's labels index it.
	hub := *e.out.node(u)
	oldIDs := e.out.nbrs(u)
	cands := e.candidates(u)
	sc.lost, sc.gained, sc.movedNb = sc.lost[:0], sc.gained[:0], sc.movedNb[:0]
	for k, c := range cands {
		if k > 0 && c == cands[k-1] {
			continue // listed twice: an old and a new neighbor of the slot
		}
		v := e.updPrev[uint32(c)].Slot
		nv := e.out.node(v)
		linked := nv.Radius > 0 && // a slot that left links to nobody
			geom.LinkWithin2(nv.Pos.Dist2(hub.Pos), hub.Radius) &&
			geom.Reaches(nv.Pos, hub.Pos, nv.Radius)
		_, was := slices.BinarySearch(oldIDs, v)
		switch {
		case linked && was:
			sc.movedNb = append(sc.movedNb, v)
		case linked:
			sc.gained = append(sc.gained, v)
		case was:
			sc.lost = append(sc.lost, v)
		}
	}
	// Slot order, which the merge below and the rank-ordered surgery need.
	slices.Sort(sc.lost)
	slices.Sort(sc.gained)
	slices.Sort(sc.movedNb)
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
	if changes*repairMaxDiffFactor > len(oldIDs)+1 {
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

	// Rebuild the local set the stored skyline was built over: the hub,
	// then oldIDs' disks in the hub frame, with the arithmetic computeNode
	// uses so the bits match. A changed neighbor takes its pre-pass disk,
	// never its current one: the surgery below moves one disk at a time,
	// and each step is only sound when every other disk still sits where
	// the skyline it patches was built.
	sc.disks = append(sc.disks[:0], geom.Disk{R: hub.Radius})
	for _, v := range oldIDs {
		sc.disks = append(sc.disks, e.out.node(v).Disk().Translate(hub.Pos))
	}
	for _, c := range cands {
		p := &e.updPrev[uint32(c)]
		if i, ok := slices.BinarySearch(oldIDs, p.Slot); ok {
			sc.disks[i+1] = geom.Disk{C: p.Pos, R: p.Radius}.Translate(hub.Pos)
		}
	}
	sc.sl = append(sc.sl[:0], st...)

	// Arc surgery on the scratch copy, ping-ponging through sc.slTmp. The
	// disks stay in neighbor-list order, so the arcs stay labelled by
	// rank: removals run from the highest rank down, each shifting only
	// the disks above it; insertions run from the lowest up, each at its
	// rank in the new list, where no arc carries its label yet, so
	// MoveDiskInto merges it in; moves run last, when every disk sits at
	// its rank in the new list. Any tie abandons the repair.
	tie := false
	for k := len(sc.lost) - 1; k >= 0 && !tie; k-- {
		i, _ := slices.BinarySearch(oldIDs, sc.lost[k])
		sc.slTmp = sc.sky.RemoveDiskInto(sc.slTmp, sc.disks, sc.sl, i+1, &tie)
		sc.sl, sc.slTmp = sc.slTmp, sc.sl
		sc.disks = slices.Delete(sc.disks, i+1, i+2)
		shiftArcs(sc.sl, i+1, -1)
	}
	for k := 0; k < len(sc.gained) && !tie; k++ {
		i, _ := slices.BinarySearch(sc.ids, sc.gained[k])
		shiftArcs(sc.sl, i+1, +1)
		sc.disks = slices.Insert(sc.disks, i+1, e.out.node(sc.gained[k]).Disk().Translate(hub.Pos))
		sc.slTmp = sc.sky.MoveDiskInto(sc.slTmp, sc.disks, sc.sl, i+1, &tie)
		sc.sl, sc.slTmp = sc.slTmp, sc.sl
	}
	for k := 0; k < len(sc.movedNb) && !tie; k++ {
		i, _ := slices.BinarySearch(sc.ids, sc.movedNb[k])
		sc.disks[i+1] = e.out.node(sc.movedNb[k]).Disk().Translate(hub.Pos)
		sc.slTmp = sc.sky.MoveDiskInto(sc.slTmp, sc.disks, sc.sl, i+1, &tie)
		sc.sl, sc.slTmp = sc.slTmp, sc.sl
	}
	if !tie {
		if ierr := checkInvariants(sc.sl, len(sc.disks)); ierr != nil {
			tie = true
		}
	}
	if tie {
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
	e.keepKin(u, sc.sl)
	e.writeForwarding(u, sc)
	e.repaired.Add(1)
	if m != nil {
		m.repairSeconds.Observe(time.Since(t0))
		if nodeSpan.Sampled() {
			//mldcslint:allow hotpathalloc span finalization runs only for sampled spans, off the steady path
			nodeSpan.End(map[string]any{"node": u, "changes": changes, "arcs": len(sc.sl)})
		}
	}
}

// candidates returns node u's run of the pass's candidate list.
func (e *Engine) candidates(u int) []uint64 {
	c := e.updCand
	lo, _ := slices.BinarySearch(c, candidate(u, 0))
	hi := lo
	for hi < len(c) && c[hi]>>32 == uint64(u) {
		hi++
	}
	return c[lo:hi]
}

// recomputeNode is updateNode's slow path: the ordinary full per-node
// compute, which rebuilds the kinetic state, counted.
//
//mldcs:hotpath
func (e *Engine) recomputeNode(u int, sc *scratch) {
	e.recomputed.Add(1)
	e.computeNode(u, sc)
}

// shiftArcs adds delta to the disk label of every arc of sl labelled d or
// higher: the relabelling a disk removed below them (-1) or inserted at d
// (+1) needs.
//
//mldcs:hotpath
func shiftArcs(sl skyline.Skyline, d, delta int) {
	for i := range sl {
		if sl[i].Disk >= d {
			sl[i].Disk += delta
		}
	}
}
