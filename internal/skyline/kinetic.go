package skyline

import (
	"math"

	"repro/internal/geom"
)

// This file is the kinetic repair layer: updating an existing skyline for
// one disk's departure (RemoveDiskInto) or motion (MoveDiskInto) without
// recomputing from scratch. An arrival is a motion from nowhere:
// MoveDiskInto on a skyline where the disk owns no arc is Lemma 8's
// one-disk merge. Removal is its inverse — excise the departing disk's
// arcs and re-expose the runner-up envelope over the freed angular spans.
// Each operation costs O(candidates × arcs touched), independent of how
// the skyline was built, which is what makes per-event repair beat
// per-tick recomputation under continuous mobility (the engine's Update
// path).
//
// Every operation accepts an optional tie flag. Repair resolves spans
// against the cached skyline rather than replaying the full merge tree, so
// on inputs with envelope ties (within geom.RhoEps), dropped sliver
// pieces, or hub-tangent disks the repaired skyline can legitimately pick
// a different — equally maximal — representative than a from-scratch
// compute would. The flag reports that any such degenerate decision was
// taken; a caller that needs bit-compatibility with full recomputation
// (the engine does, its differential tests assert element-identical
// forwarding sets) falls back to ComputeInto when it is set. The envelope
// itself is correct either way; the test suite pins it against the
// retained sort-based oracle.

// dominated reports whether disk d, with global maximum ray distance
// dmax = ‖c‖ + r, stays more than RhoEps below w everywhere on the span
// [a, b], so that w keeps the whole span: no crossing, tie or takeover is
// possible there and resolving the span would change nothing. The cheap
// global test (no trigonometry) comes first, then w's exact minimum over
// the span against d's maximum over it (docs/NUMERICS.md, "Span bounds").
// Both ends' unit vectors come from sc.unit, so adjacent arcs share their
// breakpoint's Sincos.
func (sc *Scratch) dominated(w, d geom.Disk, dmax, a, b float64) bool {
	if geom.RhoCmp(dmax, w.R-w.C.Norm()) < 0 {
		return true
	}
	ea, eb := sc.unit(a), sc.unit(b)
	floor := spanFloor(w, ea, eb, a, b)
	return geom.RhoCmp(spanCeil(d, dmax, ea, eb, a, b), floor) < 0
}

// unit returns geom.Unit(theta), reusing the previous result when theta
// repeats it bit for bit. A surgery walks its arcs in order and asks for
// each arc's start, then its end, and an arc starts where the one before
// it ended, so each breakpoint costs one Sincos, not two.
func (sc *Scratch) unit(theta float64) geom.Point {
	if !sc.unitOK || math.Float64bits(theta) != math.Float64bits(sc.unitTheta) {
		sc.unitTheta, sc.unitE, sc.unitOK = theta, geom.Unit(theta), true
	}
	return sc.unitE
}

// spanFloor returns the minimum ray distance of d over the span [a, b],
// whose ends have unit vectors ea and eb. ρ_d is circularly unimodal —
// one maximum toward the center, one minimum directly away from it — so
// the span minimum is r − ‖c‖ when the span contains the away direction
// and the smaller end value otherwise. geom.SpanSide places the away
// direction; inside its band the atan2 test decides, so the floor is
// bit-identical to the one the atan2 alone gives.
func spanFloor(d geom.Disk, ea, eb geom.Point, a, b float64) float64 {
	var in bool
	switch geom.SpanSide(geom.Point{X: -d.C.X, Y: -d.C.Y}, ea, eb, a, b) {
	case +1:
		in = true
	case 0:
		in = geom.AngleInSpan(geom.NormalizeAngle(d.C.Angle()+math.Pi), a, b)
	}
	if in {
		return d.R - d.C.Norm()
	}
	return math.Min(d.RayDistDir(ea), d.RayDistDir(eb))
}

// spanCeil returns an upper bound of d's ray distance over the span
// [a, b], never above dmax = ‖c‖ + r, its global maximum: dmax when the
// center direction may lie in the span (geom.SpanSide leans in), else
// the larger end value, since ρ_d falls monotonically away from its peak.
func spanCeil(d geom.Disk, dmax float64, ea, eb geom.Point, a, b float64) float64 {
	if geom.SpanSide(d.C, ea, eb, a, b) >= 0 {
		return dmax
	}
	return math.Min(dmax, math.Max(d.RayDistDir(ea), d.RayDistDir(eb)))
}

// RemoveDiskInto excises disks[rm]'s arcs from sl and re-exposes the
// runner-up envelope over each freed span, writing the result to dst[:0].
// The result references original disk indices (rm never appears). At least
// one other disk must exist, dst must not alias sl or the Scratch's
// internal buffers, and sl must be valid; no heap allocation once warm.
//
//mldcs:hotpath
func (sc *Scratch) RemoveDiskInto(dst Skyline, disks []geom.Disk, sl Skyline, rm int, tie *bool) Skyline {
	out := dst[:0]
	for i := 0; i < len(sl); {
		if sl[i].Disk != rm {
			out = append(out, sl[i])
			i++
			continue
		}
		j := i
		for j < len(sl) && sl[j].Disk == rm {
			j++
		}
		out = sc.resolveFreedSpan(out, disks, rm, sl[i].Start, sl[j-1].End, tie)
		i = j
	}
	if len(out) == 0 {
		return out
	}
	out[0].Start = 0
	out[len(out)-1].End = geom.TwoPi
	return combineInPlace(out)
}

// MoveDiskInto updates sl for disks[mv]'s new geometry (already written
// into disks — the excision identifies the old arcs by index, never by
// position) in one pass, writing the result to dst[:0]. It performs no
// validation and no heap allocation once the buffers are warm (the
// engine's kinetic path and the allocation regression tests pin this);
// dst must not alias sl or the Scratch's internal buffers, and the caller
// vouches that disks[mv] is a valid hub-containing disk.
//
// Runs of arcs the disk owns become freed spans resolved over all disks
// *including* the moved one. Fusing matters for small moves: the
// freed-span seed is then usually the moved disk itself, whose high floor
// prunes almost every other candidate, where a remove-then-insert pays for
// a runner-up fight and a second full walk. When the disk owns no arc of
// sl — it has just joined, so sl is the skyline of the other disks — the
// pass is exactly the one-disk merge of Lemma 8, which inserts it.
//
// Every other arc is resolved against the disk's new geometry: mergeInto
// with a full-circle one-arc second input, minus the breakpoint pass (the
// union of breakpoints is exactly sl's) and plus an envelope-bound prune:
// an arc whose owner stays strictly above the disk's maximum ray distance
// over the arc (beyond RhoEps, via RhoCmp) cannot be crossed, tied, or
// taken over anywhere on the arc, so it is copied through without any
// crossing analysis. The prune is what makes a small-move repair cheap: a
// moved neighbor contends with two or three arcs of the cached skyline,
// not all of them. Bounding the disk over the arc alone, not over the
// whole circle (spanCeil), is what keeps the arcs on the far side of a
// large disk out of the fight.
//
//mldcs:hotpath
func (sc *Scratch) MoveDiskInto(dst Skyline, disks []geom.Disk, sl Skyline, mv int, tie *bool) Skyline {
	if len(disks) == 1 {
		// Nothing else contributes: the moved disk owns the whole circle.
		return append(dst[:0], Arc{Start: 0, End: geom.TwoPi, Disk: mv})
	}
	out := dst[:0]
	d := disks[mv]
	dmax := d.C.Norm() + d.R
	im := skyInstr.Load()
	if im != nil {
		im.merges.Inc()
		im.breakpoints.Add(int64(len(sl) + 1))
	}
	for i := 0; i < len(sl); {
		arc := sl[i]
		if arc.Disk == mv {
			j := i
			for j < len(sl) && sl[j].Disk == mv {
				j++
			}
			// skip = -1: the moved disk competes for its former spans with
			// its new geometry, alongside everyone else.
			out = sc.resolveFreedSpan(out, disks, -1, sl[i].Start, sl[j-1].End, tie)
			i = j
			continue
		}
		i++
		if geom.AngleSliver(arc.Start, arc.End) {
			// mergeInto drops sliver spans (and flags): mirror it so a
			// move stays bit-identical to the merge it stands for.
			if tie != nil {
				*tie = true
			}
			continue
		}
		if sc.dominated(disks[arc.Disk], d, dmax, arc.Start, arc.End) {
			if im != nil {
				im.case0.Inc()
			}
			out = appendArc(out, arc.Start, arc.End, arc.Disk)
			continue
		}
		out = resolveSpan(disks, out, arc.Start, arc.End, arc.Disk, mv, im, tie)
	}
	if len(out) == 0 {
		win := winner(disks, sl[0].Disk, mv, 1.0)
		return append(out, Arc{Start: 0, End: geom.TwoPi, Disk: win})
	}
	out[0].Start = 0
	out[len(out)-1].End = geom.TwoPi
	return combineInPlace(out)
}

// resolveFreedSpan appends the upper envelope of all disks except rm over
// the freed span [a, b]: seed with the ray-distance winner at the span's
// midpoint, then resolve every other candidate against the running span
// skyline through the scratch's ping-pong pair. Correctness rests on the
// cached skyline: outside its freed spans the surviving arcs were maximal
// over a superset of the remaining disks, so only the freed spans need
// re-exposure.
//
//mldcs:hotpath
func (sc *Scratch) resolveFreedSpan(out Skyline, disks []geom.Disk, rm int, a, b float64, tie *bool) Skyline {
	best := bestAtExcept(disks, rm, (a+b)/2, tie)
	if geom.AngleSliver(a, b) {
		// A sliver span cannot be subdivided meaningfully; hand it to the
		// midpoint winner (combine folds it into a neighbor) and flag.
		if tie != nil {
			*tie = true
		}
		if len(out) > 0 {
			out[len(out)-1].End = b
			return out
		}
		return append(out, Arc{Start: a, End: b, Disk: best})
	}
	cur := append(sc.kinA[:0], Arc{Start: a, End: b, Disk: best})
	nxt := sc.kinB[:0]
	// The running span envelope only ever grows, so the seed's minimum
	// over [a, b] is a floor for every later resolution: any disk whose
	// maximum ray distance over the span sits strictly below it (beyond
	// RhoEps) can neither win nor tie anywhere in the span and is skipped
	// whole — by its global maximum first, then by its maximum over the
	// span.
	ea, eb := sc.unit(a), sc.unit(b)
	floor := spanFloor(disks[best], ea, eb, a, b)
	for d := range disks {
		if d == rm || d == best {
			continue
		}
		dd := disks[d]
		dmax := dd.C.Norm() + dd.R
		if geom.RhoCmp(dmax, floor) < 0 || geom.RhoCmp(spanCeil(dd, dmax, ea, eb, a, b), floor) < 0 {
			continue
		}
		nxt = nxt[:0]
		for _, arc := range cur {
			nxt = resolveSpan(disks, nxt, arc.Start, arc.End, arc.Disk, d, nil, tie)
		}
		if len(nxt) == 0 {
			// Every piece degenerated to a sliver; keep the current span
			// skyline (the candidate cannot tile [a, b] better) and flag.
			if tie != nil {
				*tie = true
			}
			continue
		}
		nxt[0].Start = a
		nxt[len(nxt)-1].End = b
		cur, nxt = nxt, cur
	}
	sc.kinA, sc.kinB = cur[:0:cap(cur)], nxt[:0:cap(nxt)]
	return append(out, cur...)
}

// bestAtExcept returns the index of the disk with the largest ray distance
// at theta among all disks except skip, under the canonical tie-break; a
// non-nil tie is set when any comparison landed within geom.RhoEps.
func bestAtExcept(disks []geom.Disk, skip int, theta float64, tie *bool) int {
	e := geom.Unit(theta)
	best := math.Inf(-1)
	arg := -1
	for i, d := range disks {
		if i == skip {
			continue
		}
		r := d.RayDistDir(e)
		if arg < 0 {
			best, arg = r, i
			continue
		}
		switch geom.RhoCmp(r, best) {
		case +1:
			best, arg = r, i
		case 0:
			if tie != nil {
				*tie = true
			}
			if betterTie(disks, i, arg) {
				best, arg = math.Max(r, best), i
			}
		}
	}
	return arg
}
