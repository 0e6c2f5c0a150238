package geom

import "math"

// CircleIntersections returns the intersection points of the circles
// ∂B(d.C, d.R) and ∂B(e.C, e.R).
//
// The returned slice has length 0 (disjoint or one circle strictly inside
// the other), 1 (tangency, internal or external), or 2. Coincident circles
// intersect everywhere; they are reported as 0 points and ok == false so
// callers can apply their own tie-breaking.
//
// Test support: the mldcs oracle tests call it; production code calls
// IntersectCircles.
func CircleIntersections(d, e Disk) (pts []Point, ok bool) {
	var buf [2]Point
	n, ok := IntersectCircles(d, e, &buf)
	if n == 0 {
		return nil, ok
	}
	return append([]Point(nil), buf[:n]...), ok
}

// IntersectCircles is the allocation-free form of CircleIntersections: it
// writes up to two intersection points into buf and returns how many. The
// skyline merge calls this in its innermost loop.
func IntersectCircles(d, e Disk, buf *[2]Point) (n int, ok bool) {
	dist := d.C.Dist(e.C)
	if dist <= Eps && math.Abs(d.R-e.R) <= Eps {
		return 0, false // coincident circles
	}
	sum := d.R + e.R
	diff := math.Abs(d.R - e.R)
	switch {
	case dist > sum+Eps:
		return 0, true // externally disjoint
	case dist < diff-Eps:
		return 0, true // one circle strictly inside the other
	}

	// Standard two-circle intersection: let a be the signed distance from
	// d.C to the chord's foot along the center line.
	a := (dist*dist + d.R*d.R - e.R*e.R) / (2 * dist)
	h2 := d.R*d.R - a*a
	if h2 < 0 {
		h2 = 0 // tangency within tolerance
	}
	h := math.Sqrt(h2)

	ux := (e.C.X - d.C.X) / dist
	uy := (e.C.Y - d.C.Y) / dist
	foot := Point{d.C.X + a*ux, d.C.Y + a*uy}

	if h <= Eps {
		buf[0] = foot
		return 1, true
	}
	buf[0] = Point{foot.X - h*uy, foot.Y + h*ux}
	buf[1] = Point{foot.X + h*uy, foot.Y - h*ux}
	return 2, true
}
