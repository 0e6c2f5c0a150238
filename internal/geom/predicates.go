package geom

import "math"

// This file is the repository's single epsilon-comparison layer. Every
// tolerance-bearing comparison outside package geom must go through one of
// these predicates (or the angle predicates in angle.go) rather than
// spelling out a raw `x <= y+Eps`; `make lint` enforces this.
//
// The policy, stated once (see docs/NUMERICS.md for the full discussion):
//
//   - All distance-like quantities — link distances, radii, envelope
//     values ρ(θ) — are compared in LINEAR units with the absolute
//     tolerance Eps. A squared-space comparison must use the squared
//     image of the same acceptance set, (r+Eps)², never r²+Eps: the two
//     differ by 2rEps, which for r > 0.5 makes the squared form stricter
//     and lets two pipelines disagree on a boundary-distance link.
//   - Angles are compared with AngleEps (angle.go).
//   - Envelope-value ties are resolved by RhoCmp with RhoEps, which is
//     deliberately the same magnitude as Eps: ρ values are linear-unit
//     distances like any other, and a divergent tie tolerance would let
//     the skyline algorithms disagree with the link predicates about
//     which disk owns a boundary ray.

// RhoEps is the tolerance for comparing envelope (ray-distance) values
// ρ(θ). ρ accumulates a dot product and a square root of rounding error,
// but both are relative errors on O(1)-to-O(10) linear-unit values, so the
// same absolute tolerance as Eps applies; keeping the two identical is
// what makes the skyline's tie-breaking consistent with the link layer.
const RhoEps = Eps

// LinkWithin is the canonical link predicate: a node at distance dist is
// within transmission radius r, with Eps of tolerance. Every link decision
// in the repository — graph construction, engine neighbor discovery,
// incremental dirty-set discovery, local-set validation — must reduce to
// this comparison so the pipelines cannot disagree on boundary links.
func LinkWithin(dist, r float64) bool { return dist <= r+Eps }

// LinkWithin2 is LinkWithin in squared space: it accepts exactly the
// distances d with d ≤ r+Eps, taking d² instead of d. Use it where the
// squared distance is already at hand (spatial-grid filters) and the sqrt
// would be wasted; the threshold is (r+Eps)², NOT r²+Eps, so the
// acceptance set matches LinkWithin up to one ulp of rounding in the
// squaring.
func LinkWithin2(dist2, r float64) bool {
	t := r + Eps
	return dist2 <= t*t
}

// Reaches reports whether a transmitter at p with radius r reaches a
// receiver at q, via LinkWithin.
func Reaches(p, q Point, r float64) bool { return LinkWithin(p.Dist(q), r) }

// ZeroLength reports whether a non-negative length (a distance or a norm)
// is zero within Eps.
func ZeroLength(d float64) bool { return d <= Eps }

// LengthEq reports whether two linear-unit values (radii, distances,
// envelope values) are equal within Eps.
func LengthEq(a, b float64) bool { return math.Abs(a-b) <= Eps }

// RhoCmp compares two envelope values with RhoEps of tolerance: −1 when
// a < b − RhoEps, +1 when a > b + RhoEps, 0 when they are tied. Callers
// resolve ties with a deterministic rule (the skyline's canonical
// tie-break: larger radius, then lower index), never by raw float order.
func RhoCmp(a, b float64) int {
	switch {
	case a > b+RhoEps:
		return +1
	case a < b-RhoEps:
		return -1
	default:
		return 0
	}
}

// RhoCovers reports whether a point at ray distance d from the hub is
// within the envelope value rho, with RhoEps of tolerance — the radial
// membership predicate behind Skyline.Contains.
func RhoCovers(rho, d float64) bool { return d <= rho+RhoEps }

// AngleSliver reports whether the linear span [a, b] (a ≤ b expected) is
// too narrow to be a real arc — at most AngleEps wide. The skyline
// algorithms drop such spans and extend a neighboring arc over them.
func AngleSliver(a, b float64) bool { return b-a <= AngleEps }

// CoversAngle reports whether an arc spanning [start, end] (linear span,
// normalized, start ≤ end) covers the angle x within AngleEps at the
// endpoints. It is the arc-membership predicate used by the runtime
// invariant checks.
func CoversAngle(x, start, end float64) bool { return AngleInSpan(x, start, end) }

// FarRootMargin is the relative hub margin of HubWellInside: the disk's
// center lies within (1 − FarRootMargin)·r of the hub, so the hub is
// inside it by at least about r/1024.
const FarRootMargin = 0x1p-10

// FarRootResidual is the relative residual OnCircle accepts:
// |‖p − c‖² − r²| ≤ FarRootResidual·r².
const FarRootResidual = 0x1p-40

// HubWellInside reports whether d contains the hub (the origin) by the
// far-root margin: ‖c‖ ≤ (1 − FarRootMargin)·r, with r large enough that
// the margin exceeds 2·Eps and r² far from overflow. Such a disk is not
// hub-tangent (LengthEq(d.C.Norm(), d.R) is false), and its circle meets
// every ray from the hub exactly once. Together with OnCircle it proves
// the skyline's far-root recheck passes (docs/NUMERICS.md, "The far-root
// margin"). It costs no square root.
func HubWellInside(d Disk) bool {
	in := (1 - FarRootMargin) * d.R
	return d.C.Norm2() <= in*in && d.R*FarRootMargin >= 2*Eps && d.R <= 0x1p450
}

// OnCircle reports whether p lies on the circle ∂B(d.C, d.R) to within the
// relative residual FarRootResidual. For a disk with HubWellInside, a
// point on its circle is, provably, the far intersection of the hub's ray
// through it: the far-root recheck |d.RayDist(p.Angle()) − ‖p‖| ≤
// 1e-7·(1 + ‖p‖) passes without its atan2, sine, cosine and square roots.
// A circle intersection of two near-coincident or barely-touching circles
// may fail it; a false result proves nothing, and the caller then runs
// the recheck.
func OnCircle(d Disk, p Point) bool {
	r2 := d.R * d.R
	return math.Abs(p.Dist2(d.C)-r2) <= FarRootResidual*r2
}
