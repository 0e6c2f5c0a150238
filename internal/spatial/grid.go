// Package spatial provides a uniform-grid spatial index used to build disk
// graphs in near-linear time: each point is hashed to a square cell, and a
// radius query scans only the cells overlapping the query disk instead of
// every point.
package spatial

import (
	"math"
	"sort"

	"repro/internal/geom"
)

// Grid is a uniform-cell spatial hash over a fixed set of points.
type Grid struct {
	cell  float64
	pts   []geom.Point
	cells map[cellKey][]int
}

type cellKey struct{ x, y int }

// NewGrid indexes the points with the given cell size. A good cell size is
// the typical query radius; it must be positive.
func NewGrid(pts []geom.Point, cell float64) *Grid {
	if !(cell > 0) {
		panic("spatial: cell size must be positive")
	}
	g := &Grid{
		cell:  cell,
		pts:   append([]geom.Point(nil), pts...),
		cells: make(map[cellKey][]int, len(pts)),
	}
	for i, p := range pts {
		k := g.key(p)
		g.cells[k] = append(g.cells[k], i)
	}
	return g
}

func (g *Grid) key(p geom.Point) cellKey {
	return cellKey{int(math.Floor(p.X / g.cell)), int(math.Floor(p.Y / g.cell))}
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return len(g.pts) }

// NumCells returns the number of occupied cells, len(Cells()) in O(1).
func (g *Grid) NumCells() int { return len(g.cells) }

// CellCoord returns the integer coordinates of the grid cell currently
// holding point i — the same key Cells() partitions and sorts by. Callers
// use it to group points by owning cell without materializing Cells().
func (g *Grid) CellCoord(i int) (x, y int) {
	if i < 0 || i >= len(g.pts) {
		panic("spatial: index out of range")
	}
	k := g.key(g.pts[i])
	return k.x, k.y
}

// Move relocates point i to p, updating the index. The grid stores its
// own copy of the coordinates, so the caller's slice is not modified.
func (g *Grid) Move(i int, p geom.Point) {
	if i < 0 || i >= len(g.pts) {
		panic("spatial: index out of range")
	}
	old := g.key(g.pts[i])
	g.pts[i] = p
	nk := g.key(p)
	if old == nk {
		return
	}
	cell := g.cells[old]
	for j, idx := range cell {
		if idx == i {
			cell[j] = cell[len(cell)-1]
			cell = cell[:len(cell)-1]
			break
		}
	}
	if len(cell) == 0 {
		delete(g.cells, old)
	} else {
		g.cells[old] = cell
	}
	g.cells[nk] = append(g.cells[nk], i)
}

// Cells returns the occupied grid cells as slices of point indices, in a
// deterministic order (sorted by cell coordinates). Together the slices
// partition [0, Len()), which makes them natural shards for whole-index
// passes: nearby points share a cell, so per-cell work has good locality.
// The inner slices alias the grid's internal storage — callers must not
// modify them, and Move invalidates them.
func (g *Grid) Cells() [][]int {
	keys := make([]cellKey, 0, len(g.cells))
	for k := range g.cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].x != keys[j].x {
			return keys[i].x < keys[j].x
		}
		return keys[i].y < keys[j].y
	})
	out := make([][]int, len(keys))
	for i, k := range keys {
		out[i] = g.cells[k]
	}
	return out
}

// Within returns the indices of all points p with ‖p − q‖ ≤ radius
// (accepting boundary points the way geom.LinkWithin does), in
// unspecified order.
func (g *Grid) Within(q geom.Point, radius float64) []int {
	var out []int
	g.VisitWithin(q, radius, func(i int) {
		out = append(out, i)
	})
	return out
}

// VisitWithin calls fn for every point within radius of q. The distance
// filter is geom.LinkWithin2 — the squared image of the canonical link
// predicate — so a grid query accepts exactly the points a linear-space
// ‖p − q‖ ≤ radius check (geom.LinkWithin) would. It allocates nothing
// beyond what fn does, making it suitable for hot loops.
func (g *Grid) VisitWithin(q geom.Point, radius float64, fn func(i int)) {
	if radius < 0 {
		return
	}
	// The cell window must cover the tolerant acceptance disk of radius
	// radius+Eps, or a boundary point sitting just across a cell border
	// would pass the distance filter but never be scanned.
	reach := radius + geom.Eps
	x0 := int(math.Floor((q.X - reach) / g.cell))
	x1 := int(math.Floor((q.X + reach) / g.cell))
	y0 := int(math.Floor((q.Y - reach) / g.cell))
	y1 := int(math.Floor((q.Y + reach) / g.cell))
	for x := x0; x <= x1; x++ {
		for y := y0; y <= y1; y++ {
			for _, i := range g.cells[cellKey{x, y}] {
				if geom.LinkWithin2(g.pts[i].Dist2(q), radius) {
					fn(i)
				}
			}
		}
	}
}
