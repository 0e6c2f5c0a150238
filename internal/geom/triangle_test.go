package geom

import (
	"math"
	"math/rand"
	"testing"
)

// Triangle support for the paper's Lemmas 5–7 (the geometric core of the
// ≤ 2n arc bound), which the tests below validate.

// triangleKind classifies a triangle by its largest angle.
type triangleKind int

// Triangle classifications.
const (
	acuteTriangle triangleKind = iota
	rightTriangle
	obtuseTriangle
	degenerateTriangle // collinear vertices
)

// String implements fmt.Stringer.
func (k triangleKind) String() string {
	switch k {
	case acuteTriangle:
		return "acute"
	case rightTriangle:
		return "right"
	case obtuseTriangle:
		return "obtuse"
	default:
		return "degenerate"
	}
}

// classifyTriangle reports whether triangle abc is acute, right, obtuse, or
// degenerate, using squared side lengths so no angles are ever computed.
func classifyTriangle(a, b, c Point) triangleKind {
	ab := a.Dist2(b)
	bc := b.Dist2(c)
	ca := c.Dist2(a)
	if math.Abs(b.Sub(a).Cross(c.Sub(a))) <= Eps {
		return degenerateTriangle
	}
	// Sort so that ab is the largest squared side.
	m := math.Max(ab, math.Max(bc, ca))
	rest := ab + bc + ca - m
	switch {
	case math.Abs(m-rest) <= Eps:
		return rightTriangle
	case m > rest:
		return obtuseTriangle
	default:
		return acuteTriangle
	}
}

// circumcircle returns the circle through the three (non-collinear) points.
// ok is false for degenerate (collinear) input.
func circumcircle(a, b, c Point) (center Point, radius float64, ok bool) {
	d := 2 * (a.X*(b.Y-c.Y) + b.X*(c.Y-a.Y) + c.X*(a.Y-b.Y))
	if math.Abs(d) <= Eps {
		return Point{}, 0, false
	}
	a2, b2, c2 := a.Norm2(), b.Norm2(), c.Norm2()
	ux := (a2*(b.Y-c.Y) + b2*(c.Y-a.Y) + c2*(a.Y-b.Y)) / d
	uy := (a2*(c.X-b.X) + b2*(a.X-c.X) + c2*(b.X-a.X)) / d
	center = Point{ux, uy}
	return center, center.Dist(a), true
}

// orthocenter returns the orthocenter of triangle abc (the common point of
// the three altitudes). ok is false for degenerate input. Lemma 6 of the
// paper states that the three "reflected" circumradius circles drawn
// outward on the triangle's edges all pass through this point.
func orthocenter(a, b, c Point) (Point, bool) {
	center, _, ok := circumcircle(a, b, c)
	if !ok {
		return Point{}, false
	}
	// orthocenter H = A + B + C − 2·O where O is the circumcenter.
	return Point{a.X + b.X + c.X - 2*center.X, a.Y + b.Y + c.Y - 2*center.Y}, true
}

// edgeCircleOutside returns the circle that has segment pq as a chord, the
// given radius (≥ ‖p−q‖/2), and its center on the opposite side of pq from
// the reference point opp. This is the construction used by Lemma 6 /
// Corollary 7: a circle drawn on a triangle edge with its center outside
// the triangle. ok is false if radius < half the chord length.
func edgeCircleOutside(p, q, opp Point, radius float64) (Disk, bool) {
	mid := midpoint(p, q)
	half := p.Dist(q) / 2
	if radius < half-Eps {
		return Disk{}, false
	}
	h2 := radius*radius - half*half
	if h2 < 0 {
		h2 = 0
	}
	h := math.Sqrt(h2)
	v := q.Sub(p)
	n := Point{-v.Y, v.X} // normal to pq
	ln := n.Norm()
	if ln <= Eps {
		return Disk{}, false
	}
	n = n.Scale(1 / ln)
	// Pick the normal direction pointing away from opp.
	if n.Dot(opp.Sub(mid)) > 0 {
		n = n.Scale(-1)
	}
	return Disk{mid.Add(n.Scale(h)), radius}, true
}

func TestClassifyTriangle(t *testing.T) {
	cases := []struct {
		a, b, c Point
		want    triangleKind
	}{
		{Pt(0, 0), Pt(1, 0), Pt(0.5, 2), acuteTriangle},
		{Pt(0, 0), Pt(1, 0), Pt(0, 1), rightTriangle},
		{Pt(0, 0), Pt(4, 0), Pt(3.8, 0.2), obtuseTriangle},
		{Pt(0, 0), Pt(1, 1), Pt(2, 2), degenerateTriangle},
	}
	for _, c := range cases {
		if got := classifyTriangle(c.a, c.b, c.c); got != c.want {
			t.Errorf("Classify(%v, %v, %v) = %v, want %v", c.a, c.b, c.c, got, c.want)
		}
	}
}

func TestTriangleKindString(t *testing.T) {
	if acuteTriangle.String() != "acute" || obtuseTriangle.String() != "obtuse" ||
		rightTriangle.String() != "right" || degenerateTriangle.String() != "degenerate" {
		t.Error("triangleKind.String mismatch")
	}
}

func TestCircumcircle(t *testing.T) {
	// Right triangle: circumcenter at hypotenuse midpoint.
	c, r, ok := circumcircle(Pt(0, 0), Pt(2, 0), Pt(0, 2))
	if !ok {
		t.Fatal("circumcircle of a right triangle must exist")
	}
	if !c.eq(Pt(1, 1)) || !almostEq(r, math.Sqrt2, 1e-9) {
		t.Errorf("circumcircle = %v r=%v, want (1,1) r=√2", c, r)
	}
	if _, _, ok := circumcircle(Pt(0, 0), Pt(1, 1), Pt(2, 2)); ok {
		t.Error("collinear points have no circumcircle")
	}
}

// Property: the circumcircle passes through all three vertices.
func TestCircumcircleThroughVertices(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 500; i++ {
		a := Pt(rng.Float64()*10, rng.Float64()*10)
		b := Pt(rng.Float64()*10, rng.Float64()*10)
		c := Pt(rng.Float64()*10, rng.Float64()*10)
		center, r, ok := circumcircle(a, b, c)
		if !ok {
			continue
		}
		for _, v := range []Point{a, b, c} {
			if !almostEq(center.Dist(v), r, 1e-6*(1+r)) {
				t.Fatalf("vertex %v at distance %v from circumcenter, want %v", v, center.Dist(v), r)
			}
		}
	}
}

// Property: the orthocenter lies on all three altitudes (each line from a
// vertex perpendicular to the opposite side).
func TestOrthocenterOnAltitudes(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 500; i++ {
		a := Pt(rng.Float64()*10, rng.Float64()*10)
		b := Pt(rng.Float64()*10, rng.Float64()*10)
		c := Pt(rng.Float64()*10, rng.Float64()*10)
		h, ok := orthocenter(a, b, c)
		if !ok {
			continue
		}
		// (h − a)·(b − c) == 0, and cyclic permutations.
		checks := [][3]Point{{a, b, c}, {b, c, a}, {c, a, b}}
		for _, ch := range checks {
			dot := h.Sub(ch[0]).Dot(ch[1].Sub(ch[2]))
			scale := 1 + ch[1].Sub(ch[2]).Norm()*h.Sub(ch[0]).Norm()
			if math.Abs(dot)/scale > 1e-6 {
				t.Fatalf("orthocenter %v not on altitude from %v (dot %v)", h, ch[0], dot)
			}
		}
	}
}

// Lemma 6 of the paper: for an acute triangle, the three circles drawn
// outward on its edges with the circumradius all pass through the
// orthocenter.
func TestLemma6EdgeCirclesMeetAtOrthocenter(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	tested := 0
	for tested < 200 {
		a := Pt(rng.Float64()*10, rng.Float64()*10)
		b := Pt(rng.Float64()*10, rng.Float64()*10)
		c := Pt(rng.Float64()*10, rng.Float64()*10)
		if classifyTriangle(a, b, c) != acuteTriangle {
			continue
		}
		tested++
		_, r, ok := circumcircle(a, b, c)
		if !ok {
			continue
		}
		h, _ := orthocenter(a, b, c)
		edges := [][3]Point{{a, b, c}, {b, c, a}, {c, a, b}}
		for _, e := range edges {
			circ, ok := edgeCircleOutside(e[0], e[1], e[2], r)
			if !ok {
				t.Fatalf("edge circle with circumradius must exist (chord ≤ 2R)")
			}
			if !almostEq(circ.C.Dist(h), r, 1e-6*(1+r)) {
				t.Fatalf("edge circle %v misses orthocenter %v: dist %v, r %v",
					circ, h, circ.C.Dist(h), r)
			}
		}
	}
}

// Corollary 7 of the paper: with radii strictly larger than the
// circumradius, the three outward edge circles have no common point. We
// verify the pairwise intersections of each circle pair are never inside
// the third circle.
func TestCorollary7NoCommonIntersection(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	tested := 0
	for tested < 200 {
		a := Pt(rng.Float64()*10, rng.Float64()*10)
		b := Pt(rng.Float64()*10, rng.Float64()*10)
		c := Pt(rng.Float64()*10, rng.Float64()*10)
		kind := classifyTriangle(a, b, c)
		if kind != acuteTriangle && kind != rightTriangle {
			continue
		}
		tested++
		_, r, ok := circumcircle(a, b, c)
		if !ok {
			continue
		}
		bigR := r * (1.05 + rng.Float64())
		var circles []Disk
		for _, e := range [][3]Point{{a, b, c}, {b, c, a}, {c, a, b}} {
			circ, ok := edgeCircleOutside(e[0], e[1], e[2], bigR)
			if !ok {
				t.Fatal("edge circle must exist for radius > circumradius")
			}
			circles = append(circles, circ)
		}
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				pts, _ := CircleIntersections(circles[i], circles[j])
				k := 3 - i - j
				for _, p := range pts {
					if circles[k].containsStrict(p) && circles[k].C.Dist(p) < circles[k].R-1e-6 {
						t.Fatalf("triple intersection found at %v for radius %v > circumradius %v",
							p, bigR, r)
					}
				}
			}
		}
	}
}

// Lemma 5 of the paper: let circles ∂B₁, ∂B₂ intersect at a and d, let
// ac′ and ab′ be diameters of B₁ and B₂, and let c (resp. b) lie on the
// arc c′d of ∂B₁ (resp. b′d of ∂B₂) [the arcs away from the other
// circle]. If ∠cab is obtuse then ‖b − c‖ > 2·min(r₁, r₂). We verify the
// inequality on random configurations satisfying the hypotheses.
func TestLemma5ObtuseChordBound(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	checked := 0
	for checked < 300 {
		// Two intersecting circles.
		r1 := 0.5 + rng.Float64()*2
		r2 := 0.5 + rng.Float64()*2
		dist := math.Abs(r1-r2) + 0.05 + rng.Float64()*(r1+r2-math.Abs(r1-r2)-0.1)
		c1 := Pt(0, 0)
		c2 := Pt(dist, 0)
		pts, ok := CircleIntersections(Disk{c1, r1}, Disk{c2, r2})
		if !ok || len(pts) != 2 {
			continue
		}
		a, d := pts[0], pts[1]
		// Diameters from a.
		cPrime := c1.Scale(2).Sub(a) // antipode of a on ∂B₁
		bPrime := c2.Scale(2).Sub(a) // antipode of a on ∂B₂
		// Sample c on the arc of ∂B₁ from c′ to d not containing a, and b
		// on the arc of ∂B₂ from b′ to d not containing a: interpolate the
		// central angle from the antipode toward d on the side away from a.
		sampleArc := func(center Point, r float64, from, to Point) Point {
			af := from.Sub(center).Angle()
			at := to.Sub(center).Angle()
			deltaCCW := CCWDelta(af, at)
			tFrac := rng.Float64()
			var theta float64
			if deltaCCW <= math.Pi {
				theta = af + tFrac*deltaCCW
			} else {
				theta = af - tFrac*(TwoPi-deltaCCW)
			}
			return Pt(center.X+r*math.Cos(theta), center.Y+r*math.Sin(theta))
		}
		c := sampleArc(c1, r1, cPrime, d)
		b := sampleArc(c2, r2, bPrime, d)
		// Hypothesis: ∠cab strictly obtuse (with margin for robustness).
		va := c.Sub(a)
		vb := b.Sub(a)
		cosAngle := va.Dot(vb) / (va.Norm() * vb.Norm())
		if cosAngle > -0.05 {
			continue
		}
		checked++
		if got, want := b.Dist(c), 2*math.Min(r1, r2); got <= want-1e-9 {
			t.Fatalf("Lemma 5 violated: ‖b−c‖ = %v ≤ 2·min(r₁,r₂) = %v\n"+
				"r1=%v r2=%v dist=%v a=%v b=%v c=%v", got, want, r1, r2, dist, a, b, c)
		}
	}
}

func TestEdgeCircleOutside(t *testing.T) {
	p, q, opp := Pt(0, 0), Pt(2, 0), Pt(1, 1)
	d, ok := edgeCircleOutside(p, q, opp, 1.5)
	if !ok {
		t.Fatal("radius 1.5 > chord/2 = 1, circle must exist")
	}
	if !d.onBoundary(p) || !d.onBoundary(q) {
		t.Errorf("chord endpoints must be on the circle: %v", d)
	}
	if d.C.Y >= 0 {
		t.Errorf("center must be on the side away from opp: %v", d.C)
	}
	if _, ok := edgeCircleOutside(p, q, opp, 0.5); ok {
		t.Error("radius below half the chord must fail")
	}
}
