package spatial

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

func TestWithinAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(300)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*12.5, rng.Float64()*12.5)
		}
		g := NewGrid(pts, 0.5+rng.Float64()*2)
		for q := 0; q < 20; q++ {
			center := geom.Pt(rng.Float64()*12.5, rng.Float64()*12.5)
			radius := rng.Float64() * 3
			got := g.Within(center, radius)
			sort.Ints(got)
			var want []int
			for i, p := range pts {
				if p.Dist(center) <= radius+geom.Eps {
					want = append(want, i)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d: Within returned %d points, brute force %d", trial, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: Within = %v, want %v", trial, got, want)
				}
			}
		}
	}
}

func TestWithinEdgeCases(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1)}
	g := NewGrid(pts, 1)
	// Radius 0 returns only coincident points.
	got := g.Within(geom.Pt(0, 0), 0)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("radius-0 query = %v", got)
	}
	// Negative radius returns nothing.
	if got := g.Within(geom.Pt(0, 0), -1); got != nil {
		t.Errorf("negative-radius query = %v", got)
	}
	// Boundary inclusion: a point exactly at distance radius is included.
	got = g.Within(geom.Pt(0, 0), 1)
	if len(got) != 3 {
		t.Errorf("unit query = %v, want all 3", got)
	}
}

// TestWithinBoundaryDistanceAgreesWithLinkPredicate is the regression
// test for the squared-space epsilon bug: the grid filter used to compare
// Dist² against r²+Eps, while the link layer compares Dist against r+Eps.
// Since (r+Eps)² ≈ r² + 2rEps, the old filter was stricter for r > 0.5
// and dropped true boundary neighbors — e.g. a point at distance r+Eps/2
// of a radius-5 query. The grid must now accept exactly the points
// geom.LinkWithin accepts, at every radius scale.
func TestWithinBoundaryDistanceAgreesWithLinkPredicate(t *testing.T) {
	for _, r := range []float64{0.25, 1, 2, 5, 100} {
		center := geom.Pt(0, 0)
		offsets := []struct {
			name string
			dx   float64
			want bool
		}{
			{"exactly-r", r, true},
			{"r-minus-half-eps", r - geom.Eps/2, true},
			{"r-plus-half-eps", r + geom.Eps/2, true}, // dropped by the old filter for r ≥ 1
			{"r-plus-2eps", r + 2*geom.Eps, false},
		}
		pts := make([]geom.Point, len(offsets))
		for i, o := range offsets {
			pts[i] = geom.Pt(o.dx, 0)
		}
		g := NewGrid(pts, r)
		got := make(map[int]bool)
		for _, i := range g.Within(center, r) {
			got[i] = true
		}
		for i, o := range offsets {
			if lin := geom.LinkWithin(pts[i].Dist(center), r); lin != o.want {
				t.Fatalf("r=%g %s: test premise broken, LinkWithin = %v", r, o.name, lin)
			}
			if got[i] != o.want {
				t.Errorf("r=%g: point at %s in grid result = %v, want %v (link predicate)",
					r, o.name, got[i], o.want)
			}
		}
	}
}

func TestEmptyGrid(t *testing.T) {
	g := NewGrid(nil, 1)
	if got := g.Within(geom.Pt(0, 0), 10); got != nil {
		t.Errorf("query on empty grid = %v", got)
	}
}

func TestBadCellSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive cell size")
		}
	}()
	NewGrid(nil, 0)
}

func TestMoveMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pts := make([]geom.Point, 100)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*10, rng.Float64()*10)
	}
	g := NewGrid(pts, 1)
	for step := 0; step < 200; step++ {
		i := rng.Intn(len(pts))
		pts[i] = geom.Pt(rng.Float64()*10, rng.Float64()*10)
		g.Move(i, pts[i])
	}
	fresh := NewGrid(pts, 1)
	if g.NumCells() != len(fresh.Cells()) || fresh.NumCells() != len(fresh.Cells()) {
		t.Fatalf("moved grid counts %d cells, fresh %d/%d", g.NumCells(), fresh.NumCells(), len(fresh.Cells()))
	}
	for q := 0; q < 30; q++ {
		center := geom.Pt(rng.Float64()*10, rng.Float64()*10)
		radius := rng.Float64() * 3
		a := g.Within(center, radius)
		b := fresh.Within(center, radius)
		sort.Ints(a)
		sort.Ints(b)
		if len(a) != len(b) {
			t.Fatalf("moved grid answers %d, fresh %d", len(a), len(b))
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("moved grid %v, fresh %v", a, b)
			}
		}
	}
}

func TestMoveDoesNotMutateCaller(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0)}
	g := NewGrid(pts, 1)
	g.Move(0, geom.Pt(5, 5))
	if pts[0] != geom.Pt(0, 0) {
		t.Error("Move must not mutate the caller's point slice")
	}
	if got := g.Within(geom.Pt(5, 5), 0.1); len(got) != 1 {
		t.Errorf("moved point not found: %v", got)
	}
}

func TestMoveOutOfRangePanics(t *testing.T) {
	g := NewGrid([]geom.Point{{}}, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	g.Move(5, geom.Pt(1, 1))
}

func TestNegativeCoordinates(t *testing.T) {
	pts := []geom.Point{geom.Pt(-5, -5), geom.Pt(-4.5, -5), geom.Pt(5, 5)}
	g := NewGrid(pts, 1)
	got := g.Within(geom.Pt(-5, -5), 0.6)
	sort.Ints(got)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("negative-coordinate query = %v, want [0 1]", got)
	}
}

// TestInsertRemoveMatchesBruteForce drives random inserts (some past every
// index seen so far), removals and moves, then checks Len, NumCells, the
// Cells partition and every query against a brute-force scan of the
// indexed points.
func TestInsertRemoveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := NewGrid(nil, 1)
	live := map[int]geom.Point{}
	for step := 0; step < 2000; step++ {
		i := rng.Intn(150)
		p := geom.Pt(rng.Float64()*10, rng.Float64()*10)
		if _, ok := live[i]; !ok {
			g.Insert(i, p)
			live[i] = p
		} else if rng.Intn(2) == 0 {
			g.Remove(i)
			delete(live, i)
		} else {
			g.Move(i, p)
			live[i] = p
		}
	}
	seen := 0
	for _, cell := range g.Cells() {
		for _, i := range cell {
			if _, ok := live[i]; !ok {
				t.Fatalf("removed point %d still in a cell", i)
			}
		}
		seen += len(cell)
	}
	if seen != len(live) || g.NumCells() != len(g.Cells()) {
		t.Fatalf("cells hold %d of %d points; NumCells %d, Cells %d", seen, len(live), g.NumCells(), len(g.Cells()))
	}
	for q := 0; q < 50; q++ {
		center := geom.Pt(rng.Float64()*10, rng.Float64()*10)
		radius := rng.Float64() * 3
		got := g.Within(center, radius)
		sort.Ints(got)
		var want []int
		for i, p := range live {
			if geom.LinkWithin(p.Dist(center), radius) {
				want = append(want, i)
			}
		}
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("Within = %v, brute force %v", got, want)
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("Within = %v, brute force %v", got, want)
			}
		}
	}
}

// TestInsertRemoveMisusePanics: inserting an indexed point, or removing or
// moving an absent one, panics instead of corrupting a cell.
func TestInsertRemoveMisusePanics(t *testing.T) {
	g := NewGrid([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}, 1)
	g.Remove(1)
	for name, f := range map[string]func(){
		"insert indexed":  func() { g.Insert(0, geom.Pt(2, 2)) },
		"insert negative": func() { g.Insert(-1, geom.Pt(2, 2)) },
		"remove removed":  func() { g.Remove(1) },
		"move removed":    func() { g.Move(1, geom.Pt(2, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
