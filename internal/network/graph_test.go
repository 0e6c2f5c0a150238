package network

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

// inNeighbors returns the nodes whose transmissions reach u: the reverse
// adjacency MoveNode patches.
func (g *Graph) inNeighbors(u int) []int { return g.in[u] }

// lineNodes builds nodes on the x-axis at the given positions with the
// given radii.
func lineNodes(xs, rs []float64) []Node {
	nodes := make([]Node, len(xs))
	for i := range xs {
		nodes[i] = Node{ID: i, Pos: geom.Pt(xs[i], 0), Radius: rs[i]}
	}
	return nodes
}

func TestBuildBidirectional(t *testing.T) {
	// Nodes at 0, 1, 3 with radii 1.5, 1.5, 1.5: links 0–1 only (1–2 at
	// distance 2 > 1.5).
	g, err := Build(lineNodes([]float64{0, 1, 3}, []float64{1.5, 1.5, 1.5}), Bidirectional)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsNeighbor(0, 1) || !g.IsNeighbor(1, 0) {
		t.Error("0 and 1 must be neighbors")
	}
	if g.IsNeighbor(1, 2) || g.IsNeighbor(0, 2) {
		t.Error("2 is isolated")
	}
	if g.Degree(0) != 1 || g.Degree(2) != 0 {
		t.Errorf("degrees: %d, %d", g.Degree(0), g.Degree(2))
	}
}

func TestBidirectionalRequiresMutualRange(t *testing.T) {
	// Node 0 has a big radius, node 1 a small one: 0 reaches 1 but 1
	// cannot reach back, so under the bidirectional model there is NO link.
	g, err := Build(lineNodes([]float64{0, 2}, []float64{3, 1}), Bidirectional)
	if err != nil {
		t.Fatal(err)
	}
	if g.IsNeighbor(0, 1) || g.IsNeighbor(1, 0) {
		t.Error("asymmetric ranges must yield no bidirectional link")
	}
	// Under the unidirectional model, 0 → 1 exists but not 1 → 0.
	gu, err := Build(lineNodes([]float64{0, 2}, []float64{3, 1}), Unidirectional)
	if err != nil {
		t.Fatal(err)
	}
	if !gu.IsNeighbor(0, 1) {
		t.Error("0 → 1 reception edge must exist")
	}
	if gu.IsNeighbor(1, 0) {
		t.Error("1 → 0 must not exist")
	}
	in := gu.inNeighbors(1)
	if len(in) != 1 || in[0] != 0 {
		t.Errorf("inNeighbors(1) = %v", in)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build([]Node{{ID: 5, Pos: geom.Pt(0, 0), Radius: 1}}, Bidirectional); err == nil {
		t.Error("non-dense IDs must fail")
	}
	if _, err := Build([]Node{{ID: 0, Pos: geom.Pt(0, 0), Radius: 0}}, Bidirectional); err == nil {
		t.Error("zero radius must fail")
	}
	g, err := Build(nil, Bidirectional)
	if err != nil || g.Len() != 0 {
		t.Error("empty graph must build")
	}
}

func TestTwoHop(t *testing.T) {
	// Chain 0–1–2–3 with unit spacing and radius 1.2 (links only between
	// consecutive nodes).
	g, err := Build(lineNodes([]float64{0, 1, 2, 3}, []float64{1.2, 1.2, 1.2, 1.2}), Bidirectional)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.TwoHop(0); len(got) != 1 || got[0] != 2 {
		t.Errorf("TwoHop(0) = %v, want [2]", got)
	}
	if got := g.TwoHop(1); len(got) != 1 || got[0] != 3 {
		t.Errorf("TwoHop(1) = %v, want [3]", got)
	}
	if got := g.TwoHop(3); len(got) != 1 || got[0] != 1 {
		t.Errorf("TwoHop(3) = %v, want [1]", got)
	}
}

func TestHopDistancesAndReachable(t *testing.T) {
	g, err := Build(lineNodes([]float64{0, 1, 2, 10}, []float64{1.2, 1.2, 1.2, 1.2}), Bidirectional)
	if err != nil {
		t.Fatal(err)
	}
	d := g.HopDistances(0)
	want := []int{0, 1, 2, -1}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("dist[%d] = %d, want %d", i, d[i], want[i])
		}
	}
}

func TestBuildMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(150)
		nodes := make([]Node, n)
		for i := range nodes {
			nodes[i] = Node{
				ID:     i,
				Pos:    geom.Pt(rng.Float64()*12.5, rng.Float64()*12.5),
				Radius: 1 + rng.Float64(),
			}
		}
		for _, model := range []LinkModel{Bidirectional, Unidirectional} {
			g, err := Build(nodes, model)
			if err != nil {
				t.Fatal(err)
			}
			for u := 0; u < n; u++ {
				var want []int
				for v := 0; v < n; v++ {
					if v == u {
						continue
					}
					d := nodes[u].Pos.Dist(nodes[v].Pos)
					ok := d <= nodes[u].Radius+geom.Eps
					if model == Bidirectional {
						ok = ok && d <= nodes[v].Radius+geom.Eps
					}
					if ok {
						want = append(want, v)
					}
				}
				got := g.Neighbors(u)
				if len(got) != len(want) {
					t.Fatalf("trial %d %v: node %d neighbors %v, want %v", trial, model, u, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d %v: node %d neighbors %v, want %v", trial, model, u, got, want)
					}
				}
			}
		}
	}
}

func TestLocalSetMapping(t *testing.T) {
	g, err := Build(lineNodes([]float64{0, 1, -1}, []float64{1.5, 1.5, 1.5}), Bidirectional)
	if err != nil {
		t.Fatal(err)
	}
	ls, ids, err := g.LocalSet(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Validate(); err != nil {
		t.Fatalf("graph-derived local set must validate: %v", err)
	}
	if len(ids) != 2 {
		t.Fatalf("neighbor IDs = %v", ids)
	}
	for i, id := range ids {
		if ls.Neighbors[i].C != g.Node(id).Pos {
			t.Errorf("neighbor disk %d does not match node %d", i, id)
		}
	}
	gu, _ := Build(lineNodes([]float64{0, 1}, []float64{1.5, 1.5}), Unidirectional)
	if _, _, err := gu.LocalSet(0); err == nil {
		t.Error("LocalSet must require the bidirectional model")
	}
}

func TestModelString(t *testing.T) {
	if Bidirectional.String() != "bidirectional" || Unidirectional.String() != "unidirectional" {
		t.Error("LinkModel.String mismatch")
	}
}

func TestDiscoverNeighborhoods(t *testing.T) {
	// The paper's Figure 5.6 asymmetry: u3 reaches u4 but u4 cannot reach
	// back, so u4 must not appear in u3's OneHop but does appear in Heard
	// of u4... Build a 3-node instance: a–b bidirectional, c hears a only.
	nodes := []Node{
		{ID: 0, Pos: geom.Pt(0, 0), Radius: 3},   // a: big radius
		{ID: 1, Pos: geom.Pt(1, 0), Radius: 2},   // b: mutual with a
		{ID: 2, Pos: geom.Pt(2.5, 0), Radius: 1}, // c: hears a (2.5 ≤ 3) but a is out of c's range
	}
	g, err := Build(nodes, Unidirectional)
	if err != nil {
		t.Fatal(err)
	}
	tables := discoverNeighborhoods(g)
	// c heard a (distance 2.5 ≤ r_a=3) and b (1.5 ≤ r_b=2).
	if got := tables[2].Heard; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("c.Heard = %v, want [0 1]", got)
	}
	// c's beacons reach distance 1 only: nobody hears c, so c has no
	// bidirectional neighbors.
	if len(tables[2].OneHop) != 0 {
		t.Errorf("c.OneHop = %v, want empty", tables[2].OneHop)
	}
	// a and b are mutual.
	if got := tables[0].OneHop; len(got) != 1 || got[0] != 1 {
		t.Errorf("a.OneHop = %v, want [1]", got)
	}
	if got := tables[1].OneHop; len(got) != 1 || got[0] != 0 {
		t.Errorf("b.OneHop = %v, want [0]", got)
	}
	if len(tables[0].TwoHop) != 0 {
		t.Errorf("a.TwoHop = %v, want empty", tables[0].TwoHop)
	}
}

// The HELLO-derived tables must agree with the bidirectional graph's
// adjacency and TwoHop when links are symmetric.
func TestDiscoverMatchesBidirectionalGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(100)
		nodes := make([]Node, n)
		for i := range nodes {
			nodes[i] = Node{
				ID:     i,
				Pos:    geom.Pt(rng.Float64()*12.5, rng.Float64()*12.5),
				Radius: 1 + rng.Float64(),
			}
		}
		gu, err := Build(nodes, Unidirectional)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := Build(nodes, Bidirectional)
		if err != nil {
			t.Fatal(err)
		}
		tables := discoverNeighborhoods(gu)
		for u := 0; u < n; u++ {
			if !equalIntSlices(tables[u].OneHop, gb.Neighbors(u)) {
				t.Fatalf("node %d: HELLO OneHop %v != graph %v", u, tables[u].OneHop, gb.Neighbors(u))
			}
			if !equalIntSlices(tables[u].TwoHop, gb.TwoHop(u)) {
				t.Fatalf("node %d: HELLO TwoHop %v != graph %v", u, tables[u].TwoHop, gb.TwoHop(u))
			}
		}
	}
}

func equalIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	if !sort.IntsAreSorted(a) || !sort.IntsAreSorted(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
