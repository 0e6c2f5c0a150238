package spatial

import (
	"math"
	"slices"

	"repro/internal/geom"
)

// HilbertOrder returns the indices of pts in the order a Hilbert curve
// over their bounding box visits them; points that share one of its
// 2^16 × 2^16 cells keep their index order. Numbering nodes in this order
// puts nodes that are near in space near each other in memory, so the
// per-slot tables of a spatial pass (an engine's pages, grid entries and
// kinetic state) touch few cache lines per neighborhood. The order
// depends only on the points and their indices, never on the order they
// arrived in. Coordinates must be finite; any finite values, up to
// ±math.MaxFloat64, give a total order. pts may hold up to 2^32 points.
func HilbertOrder(pts []geom.Point) []int {
	order := make([]int, len(pts))
	if len(pts) == 0 {
		return order
	}
	lo, hi := pts[0], pts[0]
	for _, p := range pts {
		lo.X, lo.Y = min(lo.X, p.X), min(lo.Y, p.Y)
		hi.X, hi.Y = max(hi.X, p.X), max(hi.Y, p.Y)
	}
	// One sort of plain integers: the curve position in the high half,
	// the index, which breaks ties, in the low half.
	keys := make([]uint64, len(pts))
	for i, p := range pts {
		keys[i] = uint64(hilbertIndex(curveCell(p.X, lo.X, hi.X), curveCell(p.Y, lo.Y, hi.Y)))<<32 | uint64(i)
	}
	slices.Sort(keys)
	for k, key := range keys {
		order[k] = int(uint32(key))
	}
	return order
}

// curveCell maps x in [lo, hi] to one of 2^16 equal cells. Halving before
// subtracting keeps hi − lo finite for coordinates up to ±MaxFloat64; a
// zero-width range (every point on one line, or a single point) maps to
// cell 0.
func curveCell(x, lo, hi float64) uint16 {
	w := hi/2 - lo/2
	u := (x/2 - lo/2) / w
	switch {
	case !(u > 0): // also a zero width's 0/0 = NaN
		return 0
	case u >= 1:
		return math.MaxUint16
	}
	return uint16(u * (1 << 16))
}

// hilbertIndex returns the position of cell (x, y) along the order-16
// Hilbert curve over the 2^16 × 2^16 grid, which starts at (0, 0) and
// ends at (2^16 − 1, 0): each quadrant is visited whole, and adjacent
// positions are adjacent cells. It reads one bit of each coordinate per
// level, from the top, and has no branch on them: the bits are random, so
// branches on them would mispredict about half the time.
func hilbertIndex(x, y uint16) uint32 {
	var d uint32
	for i := 15; i >= 0; i-- {
		rx, ry := uint32(x>>i)&1, uint32(y>>i)&1
		d += (3*rx ^ ry) << (2 * i)
		// Rotate the quadrant so the sub-curve enters and leaves it the
		// way the whole curve does: in the two lower quadrants (ry = 0)
		// swap x and y, and in the lower right (rx = 1) reflect both
		// first.
		flip := -uint16(rx &^ ry)
		x, y = x^flip, y^flip
		swap := (x ^ y) & -uint16(1-ry)
		x, y = x^swap, y^swap
	}
	return d
}
