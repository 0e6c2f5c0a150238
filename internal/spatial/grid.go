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

// Grid is a uniform-cell spatial hash over points named by non-negative
// indices. NewGrid indexes a fixed set; Insert, Remove and Move keep the
// index current as points appear, disappear and move, so an index need
// not be contiguous.
type Grid struct {
	cell    float64
	pts     []geom.Point
	indexed []bool
	n       int
	cells   map[cellKey][]int
}

type cellKey struct{ x, y int }

// NewGrid indexes the points, point i under index i, with the given cell
// size. A good cell size is the typical query radius; it must be positive.
func NewGrid(pts []geom.Point, cell float64) *Grid {
	if !(cell > 0) {
		panic("spatial: cell size must be positive")
	}
	g := &Grid{
		cell:    cell,
		pts:     append([]geom.Point(nil), pts...),
		indexed: make([]bool, len(pts)),
		n:       len(pts),
		cells:   make(map[cellKey][]int, len(pts)),
	}
	for i, p := range pts {
		g.indexed[i] = true
		k := g.key(p)
		g.cells[k] = append(g.cells[k], i)
	}
	return g
}

func (g *Grid) key(p geom.Point) cellKey {
	return cellKey{int(math.Floor(p.X / g.cell)), int(math.Floor(p.Y / g.cell))}
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return g.n }

// NumCells returns the number of occupied cells, len(Cells()) in O(1).
func (g *Grid) NumCells() int { return len(g.cells) }

// mustIndexed panics unless point i is indexed.
func (g *Grid) mustIndexed(i int) {
	if i < 0 || i >= len(g.pts) || !g.indexed[i] {
		panic("spatial: point not indexed")
	}
}

// Insert indexes point i at p. The index must not be indexed already; it
// may lie past every index seen so far.
func (g *Grid) Insert(i int, p geom.Point) {
	if i < 0 || i < len(g.pts) && g.indexed[i] {
		panic("spatial: point already indexed")
	}
	if i >= len(g.pts) {
		g.pts = append(g.pts, make([]geom.Point, i+1-len(g.pts))...)
		g.indexed = append(g.indexed, make([]bool, i+1-len(g.indexed))...)
	}
	g.pts[i] = p
	g.indexed[i] = true
	g.n++
	k := g.key(p)
	g.cells[k] = append(g.cells[k], i)
}

// Remove drops point i from the index.
func (g *Grid) Remove(i int) {
	g.mustIndexed(i)
	g.unlink(i, g.key(g.pts[i]))
	g.indexed[i] = false
	g.n--
}

// Move relocates point i to p, updating the index. The grid stores its
// own copy of the coordinates, so the caller's slice is not modified.
func (g *Grid) Move(i int, p geom.Point) {
	g.mustIndexed(i)
	old := g.key(g.pts[i])
	g.pts[i] = p
	nk := g.key(p)
	if old == nk {
		return
	}
	g.unlink(i, old)
	g.cells[nk] = append(g.cells[nk], i)
}

// unlink removes point i from cell k's list, dropping the cell when it
// empties.
func (g *Grid) unlink(i int, k cellKey) {
	cell := g.cells[k]
	for j, idx := range cell {
		if idx == i {
			cell[j] = cell[len(cell)-1]
			cell = cell[:len(cell)-1]
			break
		}
	}
	if len(cell) == 0 {
		delete(g.cells, k)
	} else {
		g.cells[k] = cell
	}
}

// Cells returns the occupied grid cells as slices of point indices, in a
// deterministic order (sorted by cell coordinates). Together the slices
// partition the indexed points, which makes them natural shards for whole-index
// passes: nearby points share a cell, so per-cell work has good locality.
// The inner slices alias the grid's internal storage — callers must not
// modify them, and Insert, Remove and Move invalidate them.
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
