package spatial

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// TestHilbertIndexOrderTwo pins the curve's orientation on the 4×4 grid
// its order-32 cells coarsen to: it starts at (0, 0), ends at (3, 0), and
// every step moves to an adjacent cell.
func TestHilbertIndexOrderTwo(t *testing.T) {
	want := [][2]int{{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0, 2}, {0, 3}, {1, 3}, {1, 2}, {2, 2}, {2, 3}, {3, 3}, {3, 2}, {3, 1}, {2, 1}, {2, 0}, {3, 0}}
	var pts []geom.Point
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			pts = append(pts, geom.Pt(float64(x)+0.5, float64(y)+0.5))
		}
	}
	// Widen the bounding box to [0, 4]² so each unit square is one quarter
	// of a quadrant's side.
	pts = append(pts, geom.Pt(0, 0), geom.Pt(4, 4))
	order := HilbertOrder(pts)
	k := 0
	for _, i := range order {
		if i >= 16 {
			continue
		}
		if got := [2]int{int(pts[i].X), int(pts[i].Y)}; got != want[k] {
			t.Fatalf("step %d visits %v, want %v (order %v)", k, got, want[k], order)
		}
		k++
	}
}

// TestHilbertOrderTotalAndLocal: the order is a permutation that depends
// only on the points, ties fall to index order, extreme and degenerate
// inputs still sort, and consecutive points along the curve are close.
func TestHilbertOrderTotalAndLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 4000
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
	}
	order := HilbertOrder(pts)
	if len(order) != n {
		t.Fatalf("order has %d entries, want %d", len(order), n)
	}
	seen := make([]bool, n)
	for _, i := range order {
		if seen[i] {
			t.Fatalf("index %d listed twice", i)
		}
		seen[i] = true
	}
	if !slices.Equal(order, HilbertOrder(pts)) {
		t.Fatal("the order is not deterministic")
	}
	// Mean step along the curve, against ~52 between random points.
	var step float64
	for k := 1; k < n; k++ {
		step += pts[order[k]].Dist(pts[order[k-1]])
	}
	if mean := step / (n - 1); mean > 5 {
		t.Fatalf("mean step along the curve is %.2f, want at most 5", mean)
	}

	for _, c := range []struct {
		name string
		pts  []geom.Point
		want []int
	}{
		{"empty", nil, []int{}},
		{"single", []geom.Point{geom.Pt(-1e308, 1e308)}, []int{0}},
		{"one point", []geom.Point{geom.Pt(3, 3), geom.Pt(3, 3), geom.Pt(3, 3)}, []int{0, 1, 2}},
		{"extremes", []geom.Point{geom.Pt(math.MaxFloat64, 0), geom.Pt(-math.MaxFloat64, 0), geom.Pt(0, math.MaxFloat64), geom.Pt(0, -math.MaxFloat64)}, []int{1, 2, 0, 3}},
		{"vertical line", []geom.Point{geom.Pt(1, 2), geom.Pt(1, 0), geom.Pt(1, 1)}, []int{1, 2, 0}},
	} {
		if got := HilbertOrder(c.pts); !slices.Equal(got, c.want) {
			t.Errorf("%s: order %v, want %v", c.name, got, c.want)
		}
	}
}

// TestHilbertIndexMatchesReference pins the branch-free hilbertIndex to
// the textbook loop (xy2d with its rot step) on random cells and on the
// corners.
func TestHilbertIndexMatchesReference(t *testing.T) {
	ref := func(x, y uint16) uint32 {
		var d uint32
		for s := uint16(1) << 15; s > 0; s >>= 1 {
			var rx, ry uint16
			if x&s != 0 {
				rx = 1
			}
			if y&s != 0 {
				ry = 1
			}
			d += uint32(s) * uint32(s) * uint32((3*rx)^ry)
			if ry == 0 {
				if rx == 1 {
					x, y = ^x, ^y
				}
				x, y = y, x
			}
		}
		return d
	}
	rng := rand.New(rand.NewSource(2))
	cells := [][2]uint16{{0, 0}, {0, math.MaxUint16}, {math.MaxUint16, 0}, {math.MaxUint16, math.MaxUint16}}
	for i := 0; i < 100000; i++ {
		cells = append(cells, [2]uint16{uint16(rng.Intn(1 << 16)), uint16(rng.Intn(1 << 16))})
	}
	for _, c := range cells {
		if got, want := hilbertIndex(c[0], c[1]), ref(c[0], c[1]); got != want {
			t.Fatalf("hilbertIndex(%d, %d) = %d, want %d", c[0], c[1], got, want)
		}
	}
	if got := hilbertIndex(math.MaxUint16, 0); got != math.MaxUint32 {
		t.Fatalf("the curve ends at %d, want %d", got, uint32(math.MaxUint32))
	}
}
