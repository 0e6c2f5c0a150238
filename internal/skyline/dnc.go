package skyline

import (
	"repro/internal/geom"
)

// Compute builds the skyline of a local disk set with the paper's
// divide-and-conquer algorithm (procedure Skyline, §3.4): split the disk
// set in half, recursively compute the two skylines, and Merge them. With
// the ≤ 2n arc bound of Lemma 8 the merge is linear, so the whole
// computation takes O(n log n) time — optimal (Theorem 9).
//
// Compute borrows a pooled Scratch, so its own allocation cost is O(1)
// amortized: the returned skyline. Callers on a hot loop should hold a
// Scratch and use ComputeInto instead, which is allocation-free once
// warm.
//
// The disks must all contain the origin (the hub's frame); otherwise
// ErrNotLocalDiskSet is returned.
func Compute(disks []geom.Disk) (Skyline, error) {
	sc := getScratch()
	defer putScratch(sc)
	view, err := sc.view(disks)
	if err != nil {
		return nil, err
	}
	out := make(Skyline, len(view))
	copy(out, view)
	return out, nil
}

// Merge combines two skylines over the same disk slice into the skyline of
// the union of their disk sets. It follows the paper's three steps:
//
//  1. Align the two arc lists on the union of their breakpoint angles, so
//     that within each elementary span exactly one disk is active per side.
//  2. Within each span, resolve the paper's three cases — the two active
//     arcs either do not cross, cross once, or cross twice — by cutting the
//     span at the (far-root-consistent) circle–circle intersection angles
//     and picking the outer arc on each piece.
//  3. Re-combine adjacent arcs contributed by the same disk.
//
// Step 1 is a single linear two-pointer pass over the two already-sorted
// arc lists (Lemma 8's precondition for the linear Merge behind
// Theorem 9); no sorting happens anywhere on this path.
//
// Both inputs must be valid skylines (contiguous over [0, 2π)).
func Merge(disks []geom.Disk, s1, s2 Skyline) Skyline {
	sc := getScratch()
	out := mergeInto(sc.out[:0], sc, disks, s1, s2, skyInstr.Load(), nil)
	sc.out = out
	owned := make(Skyline, len(out))
	copy(owned, out)
	putScratch(sc)
	return owned
}

// mergeInto merges s1 and s2 into dst[:0] and returns it. dst must not
// alias s1, s2, or sc's internal buffers; sc supplies the breakpoint
// scratch. A non-nil tie receives the kinetic-repair tie report (see
// resolveSpan); the full compute path passes nil.
//
//mldcs:hotpath
func mergeInto(dst Skyline, sc *Scratch, disks []geom.Disk, s1, s2 Skyline, ins *skyMetrics, tie *bool) Skyline {
	// Step 1: merged breakpoint sequence. Both inputs carry their arcs in
	// increasing angle order, so one two-pointer pass yields the sorted
	// union of their start angles, deduplicated within geom.AngleEps
	// against the last kept breakpoint — exactly the sequence the former
	// sort+dedupe produced, in O(|s1|+|s2|) with no allocation.
	bps := sc.bps[:0]
	i, j := 0, 0
	for i < len(s1) || j < len(s2) {
		var v float64
		if j >= len(s2) || (i < len(s1) && s1[i].Start <= s2[j].Start) {
			v = s1[i].Start
			i++
		} else {
			v = s2[j].Start
			j++
		}
		if len(bps) == 0 || !geom.AngleSliver(bps[len(bps)-1], v) {
			bps = append(bps, v)
		}
	}
	// 2π sentinel, deduplicated like any other breakpoint.
	if len(bps) == 0 || !geom.AngleSliver(bps[len(bps)-1], geom.TwoPi) {
		bps = append(bps, geom.TwoPi)
	}
	// Anchor the sequence at exactly 0: snap a first breakpoint within
	// AngleEps of 0, otherwise shift right and insert (valid inputs start
	// at 0, so the shift is a theoretical branch, not a copy per merge).
	if !geom.AngleSliver(0, bps[0]) {
		bps = append(bps, 0)
		copy(bps[1:], bps)
		bps[0] = 0
	} else {
		bps[0] = 0
	}
	bps[len(bps)-1] = geom.TwoPi
	sc.bps = bps

	if ins != nil {
		ins.merges.Inc()
		ins.breakpoints.Add(int64(len(bps)))
	}
	out := dst[:0]
	i1, i2 := 0, 0
	for k := 0; k+1 < len(bps); k++ {
		a, b := bps[k], bps[k+1]
		if geom.AngleSliver(a, b) {
			if tie != nil {
				*tie = true
			}
			continue
		}
		m := (a + b) / 2
		for i1 < len(s1)-1 && s1[i1].End <= m {
			i1++
		}
		for i2 < len(s2)-1 && s2[i2].End <= m {
			i2++
		}
		out = resolveSpan(disks, out, a, b, s1[i1].Disk, s2[i2].Disk, ins, tie)
	}
	if len(out) == 0 {
		// Degenerate: all spans were slivers. Fall back to whichever disk
		// wins at an arbitrary angle.
		win := winner(disks, s1[0].Disk, s2[0].Disk, 1.0)
		return append(out, Arc{Start: 0, End: geom.TwoPi, Disk: win})
	}
	out[0].Start = 0
	out[len(out)-1].End = geom.TwoPi

	// Step 3: combine same-disk neighbors and drop slivers, in place.
	return combineInPlace(out)
}

// combineInPlace is Skyline.Combine (Step 3 of the paper's Merge)
// performed in place: the write cursor never passes the read cursor, so
// the buffer is rewritten without a copy. The returned slice is a prefix
// of s with identical values to s.Combine().
func combineInPlace(s Skyline) Skyline {
	w := 0
	for _, a := range s {
		if geom.AngleSliver(a.Start, a.End) {
			// Sliver: extend the previous arc over it instead of keeping it.
			if w > 0 {
				s[w-1].End = a.End
			}
			continue
		}
		if w > 0 && s[w-1].Disk == a.Disk {
			s[w-1].End = a.End
			continue
		}
		s[w] = a
		w++
	}
	if w == 0 && len(s) > 0 {
		// Everything was a sliver (can only happen with pathological eps
		// settings); fall back to a single arc from the first input.
		s[0] = Arc{Start: 0, End: geom.TwoPi, Disk: s[0].Disk}
		w = 1
	}
	out := s[:w]
	if w > 0 {
		out[0].Start = 0
		out[w-1].End = geom.TwoPi
	}
	return out
}

// resolveSpan appends to out the skyline arcs of the span [a, b] on which
// disk u is active in one input skyline and disk v in the other. This is
// the paper's Case 1/2/3 analysis: cut the span at the crossings of the two
// ρ curves (0, 1, or 2 of them) and keep the outer disk on each piece.
//
// A non-nil tie is the kinetic-repair safety valve: it is set whenever the
// span resolution leaned on a degenerate decision — an envelope tie within
// geom.RhoEps broken by betterTie, a sliver piece dropped between
// near-coincident crossings, or a hub-tangent disk (whose ρ vanishes on a
// half-circle, the family that makes intervals of exact ties possible).
// On any of these the repaired result may legitimately pick a different
// representative than a from-scratch compute would, so the caller must
// fall back to a full recompute to stay bit-compatible with it. The full
// compute path passes nil and pays nothing.
func resolveSpan(disks []geom.Disk, out Skyline, a, b float64, u, v int, ins *skyMetrics, tie *bool) Skyline {
	if u == v {
		if ins != nil {
			ins.case0.Inc()
		}
		return appendArc(out, a, b, u)
	}
	if tie != nil && (hubTangent(disks[u]) || hubTangent(disks[v])) {
		*tie = true
	}
	var cuts [8]float64
	n := 0
	cuts[n] = a
	n++
	cands, cn := crossingAngles(disks, u, v, a, b)
	for _, c := range cands[:cn] {
		cuts[n] = c
		n++
	}
	cuts[n] = b
	n++
	if ins != nil {
		// n−2 interior cuts classify the span into the paper's cases;
		// degenerate tangent-at-hub candidates can push past 2 and are
		// counted with case 2.
		switch n - 2 {
		case 0:
			ins.case0.Inc()
		case 1:
			ins.case1.Inc()
		default:
			ins.case2.Inc()
		}
	}
	// Candidate angles arrive in unspecified order; there are at most six
	// interior cuts, so an inline insertion sort orders them without
	// bringing sort.* onto the hot path.
	for p := 2; p < n-1; p++ {
		x := cuts[p]
		q := p
		for q > 1 && cuts[q-1] > x {
			cuts[q] = cuts[q-1]
			q--
		}
		cuts[q] = x
	}
	for k := 0; k+1 < n; k++ {
		lo, hi := cuts[k], cuts[k+1]
		if geom.AngleSliver(lo, hi) {
			if tie != nil && k > 0 && k+2 < n {
				// An interior sliver means two crossings nearly coincide
				// (tangency); the winner on either side is numerically shaky.
				*tie = true
			}
			continue
		}
		out = appendArc(out, lo, hi, winnerFlag(disks, u, v, (lo+hi)/2, tie))
	}
	return out
}

// appendArc appends the arc [a, b] for the given disk, or extends the
// previous arc over it when that arc comes from the same disk.
func appendArc(out Skyline, a, b float64, disk int) Skyline {
	if len(out) > 0 && out[len(out)-1].Disk == disk {
		out[len(out)-1].End = b
		return out
	}
	return append(out, Arc{Start: a, End: b, Disk: disk})
}
