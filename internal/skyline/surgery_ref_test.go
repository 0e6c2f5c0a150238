package skyline

import (
	"math"

	"repro/internal/geom"
)

// refSurgery is the kinetic surgery as it stood before its prunes were
// bounded over the span: insertion, MoveDiskInto and the freed-span
// fight screen a challenger by its global maximum ray distance ‖c‖ + r,
// and every floor places the away direction with an atan2 and takes the
// Sincos of both span ends. The production surgery must return the same
// arcs bit for bit wherever this one reports no tie, and may report a tie
// only where this one does (TestSurgeryBoundsBitIdentical,
// FuzzKineticRepair). Its resolveFreedSpan works through its own
// ping-pong pair, so it never shares buffers with a Scratch.
type refSurgery struct {
	kinA, kinB Skyline
}

func (rs *refSurgery) insert(dst Skyline, disks []geom.Disk, sl Skyline, ins int, tie *bool) Skyline {
	out := dst[:0]
	d := disks[ins]
	dmax := d.C.Norm() + d.R
	for _, arc := range sl {
		if geom.AngleSliver(arc.Start, arc.End) {
			if tie != nil {
				*tie = true
			}
			continue
		}
		w := disks[arc.Disk]
		if geom.RhoCmp(dmax, w.R-w.C.Norm()) < 0 ||
			geom.RhoCmp(dmax, refSpanFloor(w, arc.Start, arc.End)) < 0 {
			out = appendArc(out, arc.Start, arc.End, arc.Disk)
			continue
		}
		out = resolveSpan(disks, out, arc.Start, arc.End, arc.Disk, ins, nil, tie)
	}
	if len(out) == 0 {
		win := winner(disks, sl[0].Disk, ins, 1.0)
		return append(out, Arc{Start: 0, End: geom.TwoPi, Disk: win})
	}
	out[0].Start = 0
	out[len(out)-1].End = geom.TwoPi
	return combineInPlace(out)
}

// refSpanFloor is spanFloor with the atan2 placement of the away
// direction and a Sincos for each end.
func refSpanFloor(d geom.Disk, a, b float64) float64 {
	opp := geom.NormalizeAngle(d.C.Angle() + math.Pi)
	if geom.AngleInSpan(opp, a, b) {
		return d.R - d.C.Norm()
	}
	ra := d.RayDistDir(geom.Unit(a))
	rb := d.RayDistDir(geom.Unit(b))
	return math.Min(ra, rb)
}

func (rs *refSurgery) remove(dst Skyline, disks []geom.Disk, sl Skyline, rm int, tie *bool) Skyline {
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
		out = rs.resolveFreedSpan(out, disks, rm, sl[i].Start, sl[j-1].End, tie)
		i = j
	}
	if len(out) == 0 {
		return out
	}
	out[0].Start = 0
	out[len(out)-1].End = geom.TwoPi
	return combineInPlace(out)
}

func (rs *refSurgery) move(dst Skyline, disks []geom.Disk, sl Skyline, mv int, tie *bool) Skyline {
	if len(disks) == 1 {
		return append(dst[:0], Arc{Start: 0, End: geom.TwoPi, Disk: mv})
	}
	out := dst[:0]
	d := disks[mv]
	dmax := d.C.Norm() + d.R
	for i := 0; i < len(sl); {
		arc := sl[i]
		if arc.Disk == mv {
			j := i
			for j < len(sl) && sl[j].Disk == mv {
				j++
			}
			out = rs.resolveFreedSpan(out, disks, -1, sl[i].Start, sl[j-1].End, tie)
			i = j
			continue
		}
		i++
		if geom.AngleSliver(arc.Start, arc.End) {
			if tie != nil {
				*tie = true
			}
			continue
		}
		w := disks[arc.Disk]
		if geom.RhoCmp(dmax, w.R-w.C.Norm()) < 0 ||
			geom.RhoCmp(dmax, refSpanFloor(w, arc.Start, arc.End)) < 0 {
			out = appendArc(out, arc.Start, arc.End, arc.Disk)
			continue
		}
		out = resolveSpan(disks, out, arc.Start, arc.End, arc.Disk, mv, nil, tie)
	}
	if len(out) == 0 {
		win := winner(disks, sl[0].Disk, mv, 1.0)
		return append(out, Arc{Start: 0, End: geom.TwoPi, Disk: win})
	}
	out[0].Start = 0
	out[len(out)-1].End = geom.TwoPi
	return combineInPlace(out)
}

func (rs *refSurgery) resolveFreedSpan(out Skyline, disks []geom.Disk, rm int, a, b float64, tie *bool) Skyline {
	best := bestAtExcept(disks, rm, (a+b)/2, tie)
	if geom.AngleSliver(a, b) {
		if tie != nil {
			*tie = true
		}
		if len(out) > 0 {
			out[len(out)-1].End = b
			return out
		}
		return append(out, Arc{Start: a, End: b, Disk: best})
	}
	cur := append(rs.kinA[:0], Arc{Start: a, End: b, Disk: best})
	nxt := rs.kinB[:0]
	floor := refSpanFloor(disks[best], a, b)
	for d := range disks {
		if d == rm || d == best {
			continue
		}
		if geom.RhoCmp(disks[d].C.Norm()+disks[d].R, floor) < 0 {
			continue
		}
		nxt = nxt[:0]
		for _, arc := range cur {
			nxt = resolveSpan(disks, nxt, arc.Start, arc.End, arc.Disk, d, nil, tie)
		}
		if len(nxt) == 0 {
			if tie != nil {
				*tie = true
			}
			continue
		}
		nxt[0].Start = a
		nxt[len(nxt)-1].End = b
		cur, nxt = nxt, cur
	}
	rs.kinA, rs.kinB = cur[:0:cap(cur)], nxt[:0:cap(nxt)]
	return append(out, cur...)
}

// sameArcBits reports whether two skylines hold the same arcs with the
// same owners and bitwise-equal angles.
func sameArcBits(a, b Skyline) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Disk != b[i].Disk ||
			math.Float64bits(a[i].Start) != math.Float64bits(b[i].Start) ||
			math.Float64bits(a[i].End) != math.Float64bits(b[i].End) {
			return false
		}
	}
	return true
}

// surgeryOp names the three kinetic operations the bit-identity checks run.
type surgeryOp int

const (
	opInsert surgeryOp = iota
	opRemove
	opMove
)

func (op surgeryOp) String() string {
	return [...]string{"insert", "remove", "move"}[op]
}

// runSurgery runs op on disks[k] with the production surgery into dst and
// with the reference into refDst, and returns both results and both tie
// flags. The production surgery inserts with MoveDiskInto, since sl holds
// no arc of disks[k].
func runSurgery(sc *Scratch, rs *refSurgery, op surgeryOp, dst, refDst Skyline, disks []geom.Disk, sl Skyline, k int) (got, want Skyline, gotTie, wantTie bool) {
	switch op {
	case opInsert:
		got = sc.MoveDiskInto(dst, disks, sl, k, &gotTie)
		want = rs.insert(refDst, disks, sl, k, &wantTie)
	case opRemove:
		got = sc.RemoveDiskInto(dst, disks, sl, k, &gotTie)
		want = rs.remove(refDst, disks, sl, k, &wantTie)
	default:
		got = sc.MoveDiskInto(dst, disks, sl, k, &gotTie)
		want = rs.move(refDst, disks, sl, k, &wantTie)
	}
	return got, want, gotTie, wantTie
}

// surgeryDivergence describes how the production surgery's result departs
// from the reference's, or returns "" when it does not: a tie the
// reference does not report, or different arcs where the reference
// reports no tie.
func surgeryDivergence(got, want Skyline, gotTie, wantTie bool) string {
	switch {
	case gotTie && !wantTie:
		return "reported a tie the reference does not"
	case !wantTie && !sameArcBits(got, want):
		return "arcs differ from the reference's"
	}
	return ""
}
