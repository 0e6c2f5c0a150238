package geom

import (
	"math"
	"math/rand"
	"testing"
)

// sameBits reports whether a and b have identical IEEE-754 encodings.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// angleInputs returns the bit-identity tests' inputs: ±0, ±2π, ±4π and
// 6π with their neighbouring floats, the trigonometric reduction
// threshold, the extremes of the float range, ±Inf and NaN, then n random
// values uniform over (−4π, 8π) and n/8 with random bit patterns (every
// exponent, NaN payloads included).
func angleInputs(n int) []float64 {
	inputs := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Pi, -math.Pi, math.Pi / 2, -math.Pi / 2,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		1 << 29, math.Nextafter(1<<29, 0),
	}
	for _, x := range []float64{TwoPi, -TwoPi, 2 * TwoPi, -2 * TwoPi, 3 * TwoPi} {
		inputs = append(inputs, x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		inputs = append(inputs, -2*TwoPi+6*TwoPi*rng.Float64())
		if i%8 == 0 {
			inputs = append(inputs, math.Float64frombits(rng.Uint64()))
		}
	}
	return inputs
}

// normalizeAngleMod is NormalizeAngle without its fast paths: every
// argument goes through math.Mod.
func normalizeAngleMod(theta float64) float64 {
	theta = math.Mod(theta, TwoPi)
	if theta < 0 {
		theta += TwoPi
	}
	if theta >= TwoPi {
		theta -= TwoPi
	}
	return theta
}

// TestNormalizeAngleBitIdentical pins NormalizeAngle's fast paths
// (θ itself on (−2π, 2π), θ − 2π on [2π, 4π)) to the math.Mod form.
func TestNormalizeAngleBitIdentical(t *testing.T) {
	for _, x := range angleInputs(1_000_000) {
		if got, want := NormalizeAngle(x), normalizeAngleMod(x); !sameBits(got, want) {
			t.Fatalf("NormalizeAngle(%v [%#016x]) = %v [%#016x], math.Mod form %v [%#016x]",
				x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestUnitBitIdentical pins Unit's math.Sincos to (math.Cos, math.Sin).
// For a NaN argument both give NaN, but math.Sin passes the argument's
// payload through where math.Sincos returns the canonical NaN, so there
// the test asserts NaN, not bits.
func TestUnitBitIdentical(t *testing.T) {
	for _, x := range angleInputs(1_000_000) {
		u := Unit(x)
		c, s := math.Cos(x), math.Sin(x)
		if math.IsNaN(x) {
			if !math.IsNaN(u.X) || !math.IsNaN(u.Y) {
				t.Fatalf("Unit(NaN) = %v, want NaN components", u)
			}
			continue
		}
		if !sameBits(u.X, c) || !sameBits(u.Y, s) {
			t.Fatalf("Unit(%v [%#016x]) = (%v, %v), (math.Cos, math.Sin) = (%v, %v)", x, math.Float64bits(x), u.X, u.Y, c, s)
		}
	}
}

// TestFarRootPredicatesBoundaries pins each condition of HubWellInside
// and OnCircle at its edge.
func TestFarRootPredicatesBoundaries(t *testing.T) {
	d := Disk{C: Pt(0.3, 0.4), R: 2} // hub distance 0.5
	if !HubWellInside(d) {
		t.Error("a disk with the hub at a quarter of its radius must pass")
	}
	edge := (1 - FarRootMargin) * d.R
	if !HubWellInside(Disk{C: Pt(edge, 0), R: d.R}) || HubWellInside(Disk{C: Pt(math.Nextafter(edge, 3), 0), R: d.R}) {
		t.Error("the hub margin must accept ‖c‖ = (1 − FarRootMargin)·r and reject one ulp more")
	}
	if HubWellInside(Disk{C: Pt(d.R, 0), R: d.R}) || HubWellInside(Disk{C: Pt(0, d.R+Eps/2), R: d.R}) {
		t.Error("a hub-tangent disk, or one that reaches the hub only within Eps, must fail")
	}
	small := 2 * Eps / FarRootMargin
	if !HubWellInside(Disk{R: small}) || HubWellInside(Disk{R: math.Nextafter(small, 0)}) {
		t.Error("the margin must be at least 2·Eps")
	}
	if !HubWellInside(Disk{R: 0x1p450}) || HubWellInside(Disk{R: math.Nextafter(0x1p450, 0x1p451)}) {
		t.Error("r must be at most 2^450")
	}
	if HubWellInside(Disk{R: math.NaN()}) || HubWellInside(Disk{C: Pt(math.NaN(), 0), R: 1}) || HubWellInside(Disk{R: math.Inf(1)}) {
		t.Error("NaN and Inf disks must fail")
	}
	on := d.C.Add(Unit(1).Scale(d.R))
	if !OnCircle(d, on) {
		t.Error("a point on the circle must pass")
	}
	if OnCircle(d, d.C.Add(Unit(1).Scale(d.R*(1+FarRootResidual)))) {
		t.Error("a point off the circle by more than the residual must fail")
	}
	if OnCircle(d, Pt(math.NaN(), 0)) || OnCircle(d, Pt(math.Inf(1), 0)) {
		t.Error("NaN and Inf points must fail")
	}
}

// TestFarRootPredicatesImplyRecheck checks the claims HubWellInside and
// OnCircle make, directly: for disks from near the margin to centred on
// the hub, points on and off the circle by residuals around
// FarRootResidual, and scales across the admitted range, a disk with
// HubWellInside is never hub-tangent, and every point that also passes
// OnCircle passes the skyline's far-root recheck
// |RayDist(p.Angle()) − ‖p‖| ≤ 1e-7·(1 + ‖p‖).
func TestFarRootPredicatesImplyRecheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	accepted := 0
	for i := 0; i < 1_000_000; i++ {
		r := math.Ldexp(0.5+rng.Float64(), rng.Intn(480)-25)
		frac := 1 - FarRootMargin*math.Ldexp(1+rng.Float64(), -rng.Intn(3))
		if i%4 == 0 {
			frac = rng.Float64()
		}
		d := Disk{C: Unit(TwoPi * rng.Float64()).Scale(frac * r), R: r}
		if !HubWellInside(d) {
			continue
		}
		if LengthEq(d.C.Norm(), d.R) {
			t.Fatalf("HubWellInside accepted the hub-tangent disk %v", d)
		}
		rel := math.Ldexp(rng.Float64()-0.5, -30-rng.Intn(30))
		p := d.C.Add(Unit(TwoPi * rng.Float64()).Scale(r * (1 + rel)))
		if !OnCircle(d, p) {
			continue
		}
		accepted++
		dist := p.Norm()
		if got := d.RayDist(p.Angle()); !(math.Abs(got-dist) <= 1e-7*(1+dist)) {
			t.Fatalf("accepted %v on %v, but the ray distance is %v, not ‖p‖ = %v", p, d, got, dist)
		}
	}
	if accepted < 100_000 {
		t.Fatalf("only %d of 10^6 points accepted; the test no longer reaches the predicates", accepted)
	}
}

// TestMayBeStrictlyInSpanSound checks the claim MayBeStrictlyInSpan makes:
// whenever it rules a point out, AngleStrictlyInSpan(p.Angle(), a, b) is
// false. Points lie near the octant bounds, on and near the axes, and at
// scales from 2^-1000 to 2^1000; span ends sit a few ulps from the octant
// bounds and from the edges of the point's own AngleEps margin.
func TestMayBeStrictlyInSpanSound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ulps := func(x float64) float64 {
		for s := rng.Intn(9) - 4; s != 0; {
			if s > 0 {
				x, s = math.Nextafter(x, math.Inf(1)), s-1
			} else {
				x, s = math.Nextafter(x, math.Inf(-1)), s+1
			}
		}
		return x
	}
	ruledOut := 0
	for i := 0; i < 1_000_000; i++ {
		var p Point
		switch i % 4 {
		case 0: // anywhere
			p = Unit(TwoPi * rng.Float64())
		case 1: // near an octant bound
			p = Unit(ulps(math.Pi / 4 * float64(rng.Intn(9))))
		case 2: // |x| and |y| a few ulps apart
			x := ulps(1)
			p = Pt(x*float64(1-2*rng.Intn(2)), ulps(x)*float64(1-2*rng.Intn(2)))
		default: // on or near an axis
			p = Pt(float64(1-2*rng.Intn(2)), math.Ldexp(float64(rng.Intn(3)-1), -rng.Intn(1074)))
			if rng.Intn(2) == 0 {
				p.X, p.Y = p.Y, p.X
			}
		}
		k := rng.Intn(2001) - 1000
		p = Pt(math.Ldexp(p.X, k), math.Ldexp(p.Y, k))
		theta := p.Angle()
		var a, b float64
		switch rng.Intn(3) {
		case 0:
			a, b = TwoPi*rng.Float64(), TwoPi*rng.Float64()
		case 1:
			a, b = ulps(math.Pi/4*float64(rng.Intn(9))), ulps(math.Pi/4*float64(rng.Intn(9)))
		default:
			a, b = ulps(theta-AngleEps), ulps(theta+AngleEps)
			if rng.Intn(2) == 0 {
				a, b = ulps(theta+AngleEps), TwoPi
			}
		}
		if MayBeStrictlyInSpan(p, a, b) {
			continue
		}
		ruledOut++
		if AngleStrictlyInSpan(theta, a, b) {
			t.Fatalf("MayBeStrictlyInSpan ruled out %v (angle %v) for the span (%v, %v), which holds it", p, theta, a, b)
		}
	}
	if ruledOut < 100_000 {
		t.Fatalf("only %d of 10^6 points ruled out; the test no longer reaches the predicate", ruledOut)
	}
}
