package mldcsd

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/spatial"
)

// joinDelta returns a join of node id at (x, y) with radius 1.
func joinDelta(id int64, x, y float64) Delta {
	one := 1.0
	return Delta{Op: OpJoin, Node: id, X: &x, Y: &y, R: &one}
}

// slotsByID commits w and returns each live node's slot by external ID,
// after checking that the published index lists the IDs ascending with
// Slots aligned to them.
func slotsByID(t *testing.T, w *world) map[int64]int {
	t.Helper()
	w.commit()
	if !slices.IsSorted(w.ids) || len(w.slots) != len(w.ids) {
		t.Fatalf("index not ascending or not aligned: %d IDs %v, %d slots", len(w.ids), w.ids, len(w.slots))
	}
	out := make(map[int64]int, len(w.ids))
	for i, id := range w.ids {
		s := w.slots[i]
		if st := w.state[s]; st.Leave || st.Key != id || w.index[id] != s {
			t.Fatalf("IDs[%d] = %d maps to slot %d, which holds %+v (index says %d)", i, id, s, st, w.index[id])
		}
		if _, dup := out[id]; dup {
			t.Fatalf("ID %d listed twice", id)
		}
		out[id] = s
	}
	return out
}

// TestJoinSlotsFollowHilbertCurve pins the slot layout of a join batch:
// the joiners take slots 0..n−1 in the order spatial.HilbertOrder visits
// their positions, ties broken by ascending external ID, so a node's
// nearest neighbor sits a few slots away, where the external IDs (drawn
// at random, as clients assign them) would scatter it across the range.
func TestJoinSlotsFollowHilbertCurve(t *testing.T) {
	const n = 2000
	rng := rand.New(rand.NewSource(1))
	side := math.Sqrt(n * math.Pi / 6)
	ids := rng.Perm(4 * n)[:n]
	pos := make(map[int64]geom.Point, n)
	batch := Batch{Deltas: make([]Delta, n)}
	for i, id := range ids {
		p := geom.Pt(rng.Float64()*side, rng.Float64()*side)
		pos[int64(id)] = p
		batch.Deltas[i] = joinDelta(int64(id), p.X, p.Y)
	}
	w := newWorld()
	w.apply(batch)
	slot := slotsByID(t, w)

	// The same order, rebuilt from the helper over the IDs ascending.
	sorted := make([]int64, 0, n)
	for id := range pos {
		sorted = append(sorted, id)
	}
	slices.Sort(sorted)
	pts := make([]geom.Point, n)
	for i, id := range sorted {
		pts[i] = pos[id]
	}
	for k, i := range spatial.HilbertOrder(pts) {
		if slot[sorted[i]] != k {
			t.Fatalf("node %d at %v has slot %d, want %d (its place along the curve)", sorted[i], pts[i], slot[sorted[i]], k)
		}
	}

	// Nearby in space, nearby in slots: the median slot gap to the
	// nearest neighbor is a few slots, against about n/3 for random IDs.
	gaps := make([]int, 0, n)
	for i, p := range pts {
		best, arg := math.Inf(1), -1
		for j, q := range pts {
			if j != i && p.Dist2(q) < best {
				best, arg = p.Dist2(q), j
			}
		}
		gaps = append(gaps, abs(slot[sorted[i]]-slot[sorted[arg]]))
	}
	sort.Ints(gaps)
	if med := gaps[n/2]; med > n/100 {
		t.Fatalf("median slot gap to the nearest neighbor is %d, want at most %d", med, n/100)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestJoinSlotsIndependentOfArrivalOrder: the same joins, delivered in any
// order, split across any number of batches of one group, or superseded
// by a later join of the same node, give every node the same slot, over
// many map iteration orders.
func TestJoinSlotsIndependentOfArrivalOrder(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(2))
	joins := make([]Delta, n)
	for i, id := range rng.Perm(10 * n)[:n] {
		joins[i] = joinDelta(int64(id), rng.Float64()*20, rng.Float64()*20)
	}
	w := newWorld()
	w.apply(Batch{Deltas: joins})
	want := slotsByID(t, w)
	for trial := 0; trial < 20; trial++ {
		shuffled := slices.Clone(joins)
		rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		w := newWorld()
		// A stale position for a few nodes first; the later join wins.
		for _, d := range shuffled[:10] {
			w.apply(Batch{Deltas: []Delta{joinDelta(d.Node, -*d.X, *d.Y)}})
		}
		for len(shuffled) > 0 {
			k := min(len(shuffled), 1+rng.Intn(50))
			w.apply(Batch{Deltas: shuffled[:k]})
			shuffled = shuffled[k:]
		}
		got := slotsByID(t, w)
		for id, s := range want {
			if got[id] != s {
				t.Fatalf("trial %d: node %d took slot %d, want %d", trial, id, got[id], s)
			}
		}
	}
}

// TestJoinSlotsReuseFreedLastFirst: joiners fill freed slots before they
// grow the range, last freed first, in curve order.
func TestJoinSlotsReuseFreedLastFirst(t *testing.T) {
	w := newWorld()
	var set Batch
	for i := 0; i < 10; i++ {
		set.Deltas = append(set.Deltas, joinDelta(int64(i), float64(i), 0))
	}
	w.apply(set)
	slot := slotsByID(t, w)
	// Free three slots in the order 7, 2, 5.
	for _, id := range []int64{7, 2, 5} {
		w.apply(Batch{Deltas: []Delta{{Op: OpLeave, Node: id}}})
	}
	slotsByID(t, w)
	// Four joiners along a line: the curve over their bounding box visits
	// them left to right, so they take node 5's, node 2's and node 7's
	// slots, then slot 10.
	w.apply(Batch{Deltas: []Delta{
		joinDelta(103, 3, 0), joinDelta(100, 0, 0), joinDelta(102, 2, 0), joinDelta(101, 1, 0),
	}})
	got := slotsByID(t, w)
	for id, want := range map[int64]int{100: slot[5], 101: slot[2], 102: slot[7], 103: 10} {
		if got[id] != want {
			t.Fatalf("joiner %d took slot %d, want %d (all: %v)", id, got[id], want, got)
		}
	}
}

// TestJoinSlotsExtremeCoordinates: joiners at ±1e308, all at one point,
// or alone still get a total, deterministic order — along the curve where
// positions differ, by external ID where they coincide.
func TestJoinSlotsExtremeCoordinates(t *testing.T) {
	for _, c := range []struct {
		name  string
		joins []Delta
		want  map[int64]int
	}{
		{"extremes", []Delta{joinDelta(1, 1e308, 1e308), joinDelta(2, -1e308, -1e308), joinDelta(3, 1e308, -1e308), joinDelta(4, -1e308, 1e308)},
			map[int64]int{2: 0, 4: 1, 1: 2, 3: 3}},
		{"one point", []Delta{joinDelta(9, 5, 5), joinDelta(3, 5, 5), joinDelta(7, 5, 5)},
			map[int64]int{3: 0, 7: 1, 9: 2}},
		{"single joiner", []Delta{joinDelta(42, -1e308, 0)}, map[int64]int{42: 0}},
	} {
		w := newWorld()
		w.apply(Batch{Deltas: c.joins})
		got := slotsByID(t, w)
		for id, want := range c.want {
			if got[id] != want {
				t.Errorf("%s: node %d took slot %d, want %d (all: %v)", c.name, id, got[id], want, got)
			}
		}
	}
}
