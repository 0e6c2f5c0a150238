package skyline

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
)

// Errors returned by the skyline constructors.
var (
	// ErrEmptySet is returned when no disks are supplied.
	ErrEmptySet = errors.New("skyline: empty disk set")
	// ErrNotLocalDiskSet is returned when some disk does not contain the
	// hub (the origin), so the star-shape property the algorithm relies on
	// does not hold.
	ErrNotLocalDiskSet = errors.New("skyline: disk does not contain the hub")
	// ErrInvalidRadius is returned for non-positive or non-finite radii.
	ErrInvalidRadius = errors.New("skyline: disk radius must be positive and finite")
)

// Envelope values are compared with geom.RhoCmp (tolerance geom.RhoEps):
// two ρ values within RhoEps are a tie, broken by the canonical rule in
// betterTie (larger radius, then lower index). This package used to carry
// a private tieEps for this; it was numerically identical to geom.RhoEps
// and is gone — ρ values are linear-unit distances, and a divergent tie
// tolerance here would let the skyline disagree with the link predicates
// about boundary rays (see docs/NUMERICS.md).

// checkLocal validates that the disks form a local disk set in the
// hub-at-origin frame.
func checkLocal(disks []geom.Disk) error {
	if len(disks) == 0 {
		return ErrEmptySet
	}
	for i, d := range disks {
		if !(d.R > 0) || math.IsInf(d.R, 0) || math.IsNaN(d.R) {
			return fmt.Errorf("%w: disk %d has radius %g", ErrInvalidRadius, i, d.R)
		}
		if !d.ContainsOrigin() {
			return fmt.Errorf("%w: disk %d = %v (‖center‖ = %g > r = %g)",
				ErrNotLocalDiskSet, i, d, d.C.Norm(), d.R)
		}
	}
	return nil
}

// rho evaluates the skyline envelope at angle theta: the maximum ray
// distance over all disks, together with the index of the winning disk
// under the canonical tie-break. The disks must form a local disk set.
func rho(disks []geom.Disk, theta float64) (float64, int) {
	e := geom.Unit(theta)
	best := math.Inf(-1)
	arg := -1
	for i, d := range disks {
		r := d.RayDistDir(e)
		if arg < 0 || geom.RhoCmp(r, best) > 0 {
			best, arg = r, i
			continue
		}
		if geom.RhoCmp(r, best) == 0 && betterTie(disks, i, arg) {
			best, arg = math.Max(r, best), i
		}
	}
	return best, arg
}

// betterTie reports whether disk i beats disk j under the canonical
// tie-break used when two disks have equal ray distance at an angle:
// larger radius first, then lower index. A deterministic rule keeps every
// algorithm in this package producing the same skyline on tied inputs
// (e.g. duplicate disks).
func betterTie(disks []geom.Disk, i, j int) bool {
	//mldcslint:allow floatcmp exact compare is deliberate: the tie-break needs a deterministic strict weak order, not a tolerance
	if disks[i].R != disks[j].R {
		return disks[i].R > disks[j].R
	}
	return i < j
}

// winner returns the index (i or j) of the disk with the larger ray
// distance at theta, applying the canonical tie-break when the values are
// within geom.RhoEps.
func winner(disks []geom.Disk, i, j int, theta float64) int {
	return winnerFlag(disks, i, j, theta, nil)
}

// winnerFlag is winner with tie reporting for the kinetic repair path: a
// non-nil tie is set when the two ray distances are within geom.RhoEps and
// the canonical tie-break decided the outcome. The repair caller treats a
// reported tie as grounds for a full recompute (see resolveSpan).
func winnerFlag(disks []geom.Disk, i, j int, theta float64, tie *bool) int {
	e := geom.Unit(theta)
	ri := disks[i].RayDistDir(e)
	rj := disks[j].RayDistDir(e)
	switch geom.RhoCmp(ri, rj) {
	case +1:
		return i
	case -1:
		return j
	default:
		if tie != nil {
			*tie = true
		}
		if betterTie(disks, i, j) {
			return i
		}
		return j
	}
}

// hubTangent reports whether the disk's boundary passes through the hub
// (‖c‖ = r within tolerance): the degenerate family whose ρ vanishes on a
// closed half-circle, making interval-long envelope ties possible.
func hubTangent(d geom.Disk) bool {
	return geom.LengthEq(d.C.Norm(), d.R)
}

// crossingAngles returns the candidate angles strictly inside the span
// (a, b), as geom.AngleStrictlyInSpan decides, at which the envelope
// curves ρ_i and ρ_j may cross; the angles are measured at the origin, in
// [0, 2π). Generic crossings are the circle–circle intersection points of
// disks i and j that are the far ray intersection for both circles — at
// most two. A span of (−∞, +∞) keeps every candidate.
//
// One degenerate family needs extra candidates: a disk whose boundary
// passes exactly through the hub (‖c‖ = r) has ρ ≡ 0 on the closed
// half-circle facing away from its center, so two such disks' curves can
// be *equal on an interval*, with transitions at the zero-set boundaries
// angle(c) ± π/2 rather than at any circle intersection. Those angles are
// appended as candidates; spurious candidates are harmless (the merge
// re-evaluates the winner on every sub-span).
func crossingAngles(disks []geom.Disk, i, j int, a, b float64) (out [6]float64, n int) {
	di, dj := disks[i], disks[j]
	inside := [2]bool{geom.HubWellInside(di), geom.HubWellInside(dj)}
	var buf [2]geom.Point
	cnt, ok := geom.IntersectCircles(di, dj, &buf)
	if ok {
		for _, p := range buf[:cnt] {
			// Most intersection points lie outside the span; an octant
			// test rules out about four in five of those before the atan2.
			if !geom.MayBeStrictlyInSpan(p, a, b) {
				continue
			}
			theta := p.Angle()
			if !geom.AngleStrictlyInSpan(theta, a, b) {
				continue
			}
			// Far-root consistency: the crossing of the ρ curves happens
			// only where this intersection point is the *far* intersection
			// of the ray with both circles. A circle that holds the hub
			// well inside meets the ray there and nowhere else
			// (Corollary 2), so a point on two such circles passes
			// without trigonometry; the rest (hub-tangent disks, points
			// of near-coincident or grazing circles) take the recheck.
			if inside[0] && inside[1] && geom.OnCircle(di, p) && geom.OnCircle(dj, p) ||
				farRootRecheck(di, dj, p, theta) {
				out[n] = theta
				n++
			}
		}
	}
	for k, d := range [2]geom.Disk{di, dj} {
		// A disk with the hub well inside is provably not hub-tangent.
		if !inside[k] && geom.LengthEq(d.C.Norm(), d.R) {
			c := d.C.Angle()
			for _, t := range [2]float64{geom.NormalizeAngle(c + math.Pi/2), geom.NormalizeAngle(c - math.Pi/2)} {
				if geom.AngleStrictlyInSpan(t, a, b) {
					out[n] = t
					n++
				}
			}
		}
	}
	return out, n
}

// farRootRecheck evaluates far-root consistency directly: both circles'
// ray distances along the direction theta of p must equal ‖p‖. The
// tolerance is proportional to the local scale to absorb the sqrt in
// RayDist.
func farRootRecheck(d, e geom.Disk, p geom.Point, theta float64) bool {
	u := geom.Unit(theta)
	dist := p.Norm()
	tol := 1e-7 * (1 + dist)
	return math.Abs(d.RayDistDir(u)-dist) <= tol && math.Abs(e.RayDistDir(u)-dist) <= tol
}
