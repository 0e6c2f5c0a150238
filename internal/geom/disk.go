package geom

import (
	"fmt"
	"math"
)

// Disk is a closed disk B(C, R) = { x : ‖x − C‖ ≤ R }.
type Disk struct {
	C Point   // center
	R float64 // radius, must be > 0 for a valid disk
}

// NewDisk returns the disk with center (x, y) and radius r.
func NewDisk(x, y, r float64) Disk { return Disk{Point{x, y}, r} }

// Contains reports whether point p lies in the closed disk, within Eps.
func (d Disk) Contains(p Point) bool {
	return d.C.Dist(p) <= d.R+Eps
}

// ContainsOrigin reports whether the disk contains the origin. Every disk
// of a local disk set must contain the hub, which callers translate to the
// origin before invoking the skyline machinery.
func (d Disk) ContainsOrigin() bool { return d.C.Norm() <= d.R+Eps }

// ContainsDisk reports whether d fully contains e (within Eps):
// ‖C_d − C_e‖ + R_e ≤ R_d.
//
// Test support: the skyline property tests build nested disks with it.
func (d Disk) ContainsDisk(e Disk) bool {
	return d.C.Dist(e.C)+e.R <= d.R+Eps
}

// Translate returns the disk shifted by −origin, i.e. expressed in a frame
// where origin is (0, 0).
func (d Disk) Translate(origin Point) Disk {
	return Disk{d.C.Sub(origin), d.R}
}

// String implements fmt.Stringer.
func (d Disk) String() string {
	return fmt.Sprintf("B(%s, %.6g)", d.C, d.R)
}

// RayDist returns ρ(θ): the distance from the origin to the unique far
// intersection of the ray { t·(cos θ, sin θ) : t ≥ 0 } with the circle
// ∂B(C, R), assuming the disk contains the origin (‖C‖ ≤ R).
//
// Substituting the ray into ‖x − C‖ = R gives t² − 2t(C·e) + ‖C‖² − R² = 0,
// whose roots are (C·e) ± sqrt((C·e)² + R² − ‖C‖²). When ‖C‖ ≤ R the
// discriminant is non-negative for every θ and the product of the roots,
// ‖C‖² − R², is ≤ 0, so exactly one root is ≥ 0: the far one. This is the
// analytic form of Corollary 2 in the paper (each ray from the hub meets
// the skyline exactly once).
//
// If the disk does not contain the origin, RayDist returns the far root
// when the ray hits the circle and NaN otherwise; the skyline code never
// relies on that case, but the geometry tests exercise it.
func (d Disk) RayDist(theta float64) float64 {
	return d.RayDistDir(Unit(theta))
}

// RayDistDir is RayDist along a caller-supplied unit direction
// e = (cos θ, sin θ). Hot loops that evaluate several disks at the same
// angle (the skyline's winner and envelope scans) compute the direction
// once and share it; RayDistDir(Unit(theta)) is bit-identical to
// RayDist(theta).
func (d Disk) RayDistDir(e Point) float64 {
	b := d.C.Dot(e)
	disc := b*b + d.R*d.R - d.C.Norm2()
	if disc < 0 {
		if disc >= -Eps && b >= 0 { // grazing contact, flushed to tangency
			return b
		}
		return math.NaN()
	}
	t := b + math.Sqrt(disc)
	if t < -Eps {
		// Both intersection parameters are negative: the circle lies
		// entirely behind the ray's origin (possible only when the disk
		// does not contain the origin).
		return math.NaN()
	}
	return t
}
