// Package geom provides the planar computational-geometry substrate used by
// the minimum-local-disk-cover-set (MLDCS) library: points, angles, disks,
// circle intersections, arcs, and the ray-distance function ρ_i(θ) that the
// skyline algorithm is built on.
//
// All coordinates are float64. Comparisons are epsilon-tolerant; see Eps.
package geom

import (
	"fmt"
	"math"
)

// Eps is the default absolute tolerance for coordinate and distance
// comparisons. Coordinates in the paper's workloads are O(10) and radii are
// O(1), so 1e-9 leaves ~6 decimal digits of slack above float64 noise.
const Eps = 1e-9

// Point is a point (or vector) in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{x, y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p − q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{k * p.X, k * p.Y} }

// Dot returns the dot product p·q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z-component of the cross product p × q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean norm ‖p‖.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Norm2 returns the squared Euclidean norm ‖p‖².
func (p Point) Norm2() float64 { return p.X*p.X + p.Y*p.Y }

// Dist returns the Euclidean distance ‖p − q‖.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance ‖p − q‖².
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Angle returns the polar angle of p in [0, 2π).
func (p Point) Angle() float64 { return NormalizeAngle(math.Atan2(p.Y, p.X)) }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.6g, %.6g)", p.X, p.Y) }

// Unit returns the unit vector at polar angle theta. math.Sincos runs the
// argument reduction of math.Sin and math.Cos once instead of twice, and
// the same polynomials, so the result is bit-identical to
// (math.Cos(theta), math.Sin(theta)) (docs/NUMERICS.md, "Bit-identical
// rewrites").
func Unit(theta float64) Point {
	sin, cos := math.Sincos(theta)
	return Point{cos, sin}
}
