package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// eq reports whether p and q coincide within Eps in each coordinate.
func (p Point) eq(q Point) bool {
	return math.Abs(p.X-q.X) <= Eps && math.Abs(p.Y-q.Y) <= Eps
}

// midpoint returns the midpoint of p and q.
func midpoint(p, q Point) Point { return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2} }

func TestPointArithmetic(t *testing.T) {
	p := Pt(3, 4)
	q := Pt(-1, 2)
	if got := p.Add(q); got != Pt(2, 6) {
		t.Errorf("Add = %v, want (2, 6)", got)
	}
	if got := p.Sub(q); got != Pt(4, 2) {
		t.Errorf("Sub = %v, want (4, 2)", got)
	}
	if got := p.Scale(2); got != Pt(6, 8) {
		t.Errorf("Scale = %v, want (6, 8)", got)
	}
	if got := p.Dot(q); got != 5 {
		t.Errorf("Dot = %v, want 5", got)
	}
	if got := p.Cross(q); got != 10 {
		t.Errorf("Cross = %v, want 10", got)
	}
}

func TestNormAndDist(t *testing.T) {
	p := Pt(3, 4)
	if p.Norm() != 5 {
		t.Errorf("Norm = %v, want 5", p.Norm())
	}
	if p.Norm2() != 25 {
		t.Errorf("Norm2 = %v, want 25", p.Norm2())
	}
	q := Pt(0, 0)
	if p.Dist(q) != 5 || p.Dist2(q) != 25 {
		t.Errorf("Dist/Dist2 = %v/%v, want 5/25", p.Dist(q), p.Dist2(q))
	}
}

func TestAngleOfPoint(t *testing.T) {
	cases := []struct {
		p    Point
		want float64
	}{
		{Pt(1, 0), 0},
		{Pt(0, 1), math.Pi / 2},
		{Pt(-1, 0), math.Pi},
		{Pt(0, -1), 3 * math.Pi / 2},
		{Pt(1, 1), math.Pi / 4},
	}
	for _, c := range cases {
		if got := c.p.Angle(); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Angle(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestUnitVector(t *testing.T) {
	for _, theta := range []float64{0, 0.5, math.Pi, 5.7} {
		u := Unit(theta)
		if !almostEq(u.Norm(), 1, 1e-12) {
			t.Errorf("Unit(%v) has norm %v", theta, u.Norm())
		}
		if !almostEq(NormalizeAngle(u.Angle()), NormalizeAngle(theta), 1e-12) {
			t.Errorf("Unit(%v).Angle() = %v", theta, u.Angle())
		}
	}
}

func TestMidpoint(t *testing.T) {
	if got := midpoint(Pt(0, 0), Pt(2, 4)); got != Pt(1, 2) {
		t.Errorf("midpoint = %v, want (1, 2)", got)
	}
}

func TestEqTolerance(t *testing.T) {
	p := Pt(1, 1)
	if !p.eq(Pt(1+Eps/2, 1-Eps/2)) {
		t.Error("Eq should tolerate sub-Eps differences")
	}
	if p.eq(Pt(1+10*Eps, 1)) {
		t.Error("Eq should reject differences above Eps")
	}
}

// Property: ‖p − q‖² == Dist2 and triangle inequality.
func TestDistProperties(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := Pt(clampCoord(ax), clampCoord(ay)), Pt(clampCoord(bx), clampCoord(by)), Pt(clampCoord(cx), clampCoord(cy))
		d2 := a.Dist(b) * a.Dist(b)
		if !almostEq(d2, a.Dist2(b), 1e-6*(1+d2)) {
			return false
		}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Dot is symmetric and Cross is antisymmetric.
func TestDotCrossSymmetry(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Pt(clampCoord(ax), clampCoord(ay)), Pt(clampCoord(bx), clampCoord(by))
		return a.Dot(b) == b.Dot(a) && a.Cross(b) == -b.Cross(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clampCoord folds an arbitrary quick-generated float into a well-behaved
// coordinate range so properties are not voided by inf/NaN/overflow.
func clampCoord(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 100)
}
