package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestCircleIntersectionsTwoPoints(t *testing.T) {
	// Unit circles at (0,0) and (1,0): intersections at (1/2, ±√3/2).
	pts, ok := CircleIntersections(NewDisk(0, 0, 1), NewDisk(1, 0, 1))
	if !ok || len(pts) != 2 {
		t.Fatalf("got %d points, ok=%v; want 2 points", len(pts), ok)
	}
	want := math.Sqrt(3) / 2
	for _, p := range pts {
		if !almostEq(p.X, 0.5, 1e-9) || !almostEq(math.Abs(p.Y), want, 1e-9) {
			t.Errorf("unexpected intersection %v", p)
		}
	}
	if pts[0].eq(pts[1]) {
		t.Error("the two intersection points must differ")
	}
}

func TestCircleIntersectionsTangent(t *testing.T) {
	// Externally tangent at (1, 0).
	pts, ok := CircleIntersections(NewDisk(0, 0, 1), NewDisk(2, 0, 1))
	if !ok || len(pts) != 1 {
		t.Fatalf("external tangency: got %d points, ok=%v", len(pts), ok)
	}
	if !pts[0].eq(Pt(1, 0)) {
		t.Errorf("tangent point = %v, want (1, 0)", pts[0])
	}
	// Internally tangent at (2, 0).
	pts, ok = CircleIntersections(NewDisk(0, 0, 2), NewDisk(1, 0, 1))
	if !ok || len(pts) != 1 {
		t.Fatalf("internal tangency: got %d points, ok=%v", len(pts), ok)
	}
	if !pts[0].eq(Pt(2, 0)) {
		t.Errorf("tangent point = %v, want (2, 0)", pts[0])
	}
}

func TestCircleIntersectionsDisjoint(t *testing.T) {
	pts, ok := CircleIntersections(NewDisk(0, 0, 1), NewDisk(5, 0, 1))
	if !ok || pts != nil {
		t.Errorf("disjoint circles: got %v, ok=%v", pts, ok)
	}
	// One strictly inside the other.
	pts, ok = CircleIntersections(NewDisk(0, 0, 5), NewDisk(1, 0, 1))
	if !ok || pts != nil {
		t.Errorf("nested circles: got %v, ok=%v", pts, ok)
	}
}

func TestCircleIntersectionsCoincident(t *testing.T) {
	d := NewDisk(1, 2, 3)
	if _, ok := CircleIntersections(d, d); ok {
		t.Error("coincident circles must report ok=false")
	}
}

// Property: every returned intersection point lies on both circles, and the
// result is symmetric in its arguments.
func TestCircleIntersectionsOnBothCircles(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 1000; i++ {
		d := Disk{Pt(rng.Float64()*4-2, rng.Float64()*4-2), 0.5 + rng.Float64()*2}
		e := Disk{Pt(rng.Float64()*4-2, rng.Float64()*4-2), 0.5 + rng.Float64()*2}
		pts, ok := CircleIntersections(d, e)
		if !ok {
			continue
		}
		for _, p := range pts {
			if !d.onBoundary(p) || !e.onBoundary(p) {
				t.Fatalf("intersection %v not on both circles %v, %v (dists %g, %g)",
					p, d, e, d.C.Dist(p)-d.R, e.C.Dist(p)-e.R)
			}
		}
		rev, _ := CircleIntersections(e, d)
		if len(rev) != len(pts) {
			t.Fatalf("asymmetric intersection count: %d vs %d", len(pts), len(rev))
		}
	}
}
