package skyline

import (
	"math"

	"repro/internal/geom"
)

// CrossingAngles and CrossingAnglesReference expose the merge's candidate
// generator and its reference to the external pair tests
// (crossing_test.go), which draw their disk pairs from deployments built
// by packages that import this one.
var (
	CrossingAngles          = crossingAngles
	CrossingAnglesReference = crossingAnglesReference
)

// crossingAnglesReference is crossingAngles as it stood before the
// far-root shortcut (geom.HubWellInside and geom.OnCircle), spelled with
// the primitives of that time: every circle intersection point takes the
// full far-root recheck (math.Cos and math.Sin of its atan2 angle, two ray
// distances and a hypot), every disk takes the hypot hub-tangent test, and
// angles are normalized through math.Mod. crossingAngles must return the
// same candidate array bit for bit. ComputeNaive and the merge oracle call
// the production function, so only this copy can catch a shortcut that
// admits a near root, drops a hub-tangent candidate or moves an angle by
// one ulp.
func crossingAnglesReference(disks []geom.Disk, i, j int) (out [6]float64, n int) {
	var buf [2]geom.Point
	cnt, ok := geom.IntersectCircles(disks[i], disks[j], &buf)
	if ok {
		for _, p := range buf[:cnt] {
			theta := normalizeAngleMod(math.Atan2(p.Y, p.X))
			e := geom.Point{X: math.Cos(theta), Y: math.Sin(theta)}
			dist := p.Norm()
			tol := 1e-7 * (1 + dist)
			if math.Abs(disks[i].RayDistDir(e)-dist) <= tol &&
				math.Abs(disks[j].RayDistDir(e)-dist) <= tol {
				out[n] = theta
				n++
			}
		}
	}
	for _, d := range [2]geom.Disk{disks[i], disks[j]} {
		if geom.LengthEq(d.C.Norm(), d.R) {
			a := normalizeAngleMod(math.Atan2(d.C.Y, d.C.X))
			out[n] = normalizeAngleMod(a + math.Pi/2)
			n++
			out[n] = normalizeAngleMod(a - math.Pi/2)
			n++
		}
	}
	return out, n
}

// normalizeAngleMod is geom.NormalizeAngle before its math.Mod fast paths.
func normalizeAngleMod(theta float64) float64 {
	theta = math.Mod(theta, geom.TwoPi)
	if theta < 0 {
		theta += geom.TwoPi
	}
	if theta >= geom.TwoPi {
		theta -= geom.TwoPi
	}
	return theta
}
