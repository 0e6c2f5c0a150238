package geom

import "math"

// TwoPi is 2π, the full angular range of a skyline.
const TwoPi = 2 * math.Pi

// AngleEps is the tolerance used when comparing angles (radians). Skyline
// breakpoints are derived from atan2 of intersection points, so angular
// noise is on the order of Eps divided by the point's distance from the
// hub; 1e-9 rad is comfortably above that for the paper's workloads.
const AngleEps = 1e-9

// NormalizeAngle maps an angle to the canonical range [0, 2π).
//
// math.Mod returns θ itself for −2π < θ < 2π, and θ − 2π for
// 2π ≤ θ < 4π, where the subtraction is exact (Sterbenz's lemma). The
// kernel's angles (atan2 results and hub-tangent candidates at ±π/2 from
// one) all fall in those two ranges, so they skip the Mod loop with the
// same bits it would return (docs/NUMERICS.md, "Bit-identical rewrites").
func NormalizeAngle(theta float64) float64 {
	switch {
	case theta > -TwoPi && theta < TwoPi:
	case theta >= TwoPi && theta < 2*TwoPi:
		return theta - TwoPi
	default:
		theta = math.Mod(theta, TwoPi)
	}
	if theta < 0 {
		theta += TwoPi
	}
	// math.Mod can return values equal to TwoPi after the correction when
	// theta is a tiny negative number; fold those back to 0.
	if theta >= TwoPi {
		theta -= TwoPi
	}
	return theta
}

// AngleEq reports whether two angles are equal within AngleEps, treating 0
// and 2π as identical.
func AngleEq(a, b float64) bool {
	d := math.Abs(NormalizeAngle(a) - NormalizeAngle(b))
	return d <= AngleEps || TwoPi-d <= AngleEps
}

// AngleInSpan reports whether angle x lies in the closed linear span
// [a, b] (a ≤ b expected), within AngleEps at the endpoints.
func AngleInSpan(x, a, b float64) bool {
	return x >= a-AngleEps && x <= b+AngleEps
}

// AngleStrictlyInSpan reports whether angle x lies strictly inside the
// linear span (a, b), i.e. more than AngleEps away from both endpoints.
func AngleStrictlyInSpan(x, a, b float64) bool {
	return x > a+AngleEps && x < b-AngleEps
}

// octantBounds are the bounds kπ/4 of the octants MayBeStrictlyInSpan
// sorts points into.
var octantBounds = [9]float64{0, math.Pi / 4, math.Pi / 2, 3 * math.Pi / 4, math.Pi, 5 * math.Pi / 4, 3 * math.Pi / 2, 7 * math.Pi / 4, TwoPi}

// MayBeStrictlyInSpan reports whether the polar angle of p could lie
// strictly inside the span (a, b): a false result proves that
// AngleStrictlyInSpan(p.Angle(), a, b) is false, without the atan2. It
// sorts p into the octant [kπ/4, (k+1)π/4] that holds its angle, by the
// signs of its coordinates and |x| against |y|, and reports whether the
// octant meets [a, b]. p.Angle() is within a few ulps of the octant, far
// inside the AngleEps margins of AngleStrictlyInSpan. A point on an axis,
// a NaN, or a span that starts below 0 (p.Angle() can wrap from just
// below 2π to 0) is never ruled out.
func MayBeStrictlyInSpan(p Point, a, b float64) bool {
	ax, ay := math.Abs(p.X), math.Abs(p.Y)
	if !(a >= 0 && ax > 0 && ay > 0) {
		return true
	}
	// Quadrants 0..3 counterclockwise; within one, the octant nearer the
	// x axis comes first in quadrants 0 and 2 and second in 1 and 3.
	below, left := p.Y < 0, p.X < 0
	q := 2*b2i(below) + b2i(left != below)
	k := 2*q + b2i((ay > ax) != (q&1 == 1))
	return octantBounds[k+1] > a && octantBounds[k] < b
}

// SpanBand is the half-width, in radians, of the band around a span's
// ends inside which SpanSide takes no side. It is twice AngleEps, the
// margin of AngleInSpan, and about 10^6 times the rounding error of the
// cross products and of an atan2, so outside it the two tests cannot
// disagree.
const SpanBand = 2 * AngleEps

// SpanSideMin is the smallest ‖v‖₁ SpanSide places. Above it the cross
// products keep full precision; below it they would round in the
// subnormal range, and SpanSide reports 0.
const SpanSideMin = 0x1p-870

// SpanSide places the direction of v against the linear span [a, b]
// (0 ≤ a ≤ b ≤ 2π), given the unit vectors ea = Unit(a) and eb = Unit(b)
// of its ends: +1 when v points into the span by more than SpanBand from
// either end, −1 when it points outside by more than SpanBand, and 0 in
// between, which includes a v shorter than SpanSideMin and non-finite
// products. Outside the band it agrees with AngleInSpan(v.Angle(), a, b),
// from two cross products and at most two dot products instead of an
// atan2: ea × v and v × eb are ‖v‖ times the sines of the angles from a
// to v and from v to b (docs/NUMERICS.md, "Span bounds"). A caller that
// needs AngleInSpan's exact answer takes the atan2 only on a 0.
func SpanSide(v, ea, eb Point, a, b float64) int {
	n1 := math.Abs(v.X) + math.Abs(v.Y)
	if !(n1 >= SpanSideMin) {
		return 0
	}
	sa, sb := ea.Cross(v), v.Cross(eb)
	tol := SpanBand * n1
	wide := b-a > math.Pi
	switch {
	case !wide && (sa < -tol || sb < -tol), wide && sa < -tol && sb < -tol:
		// A span of at most π lies left of ea and right of eb; a wider
		// one is the complement of an arc narrower than π that lies
		// right of ea and left of eb.
		return -1
	case !wide && sa > tol && sb > tol, wide && (sa > tol || sb > tol):
		return +1
	case ea.Dot(v) < 0 && eb.Dot(v) < 0:
		// A sine near zero is also an angle near π. v is then more than
		// π/2 from both ends, while every direction of a narrow span and
		// every direction outside a wide one lies within π/2 of an end.
		if wide {
			return +1
		}
		return -1
	}
	return 0
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// CCWDelta returns the counterclockwise angular distance from a to b in
// [0, 2π).
func CCWDelta(a, b float64) float64 {
	return NormalizeAngle(b - a)
}

// Degrees converts radians to degrees. Used only for human-readable output.
func Degrees(rad float64) float64 { return rad * 180 / math.Pi }
