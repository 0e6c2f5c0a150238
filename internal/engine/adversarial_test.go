package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/spatial"
)

// This file is the adversarial perturbation harness for the unified
// epsilon policy (docs/NUMERICS.md): generators that concentrate node
// configurations on the decision boundaries of geom's predicates —
// link distances within ±Eps/2 of a radius, cocircular neighbor rings
// at tie angles, neighbor disks tangent to the hub — and feed them
// through the existing differential matrix (sequential pipeline ×
// engine worker variants × naive skyline oracle).

// boundaryNodes places n random nodes and then sets each radius to the
// exact distance of some other node, perturbed by one of
// {0, ±Eps/2, ±2Eps}: every node's range boundary passes through (or
// within an epsilon of) another node, so almost every link decision in
// the deployment is a boundary case for geom.LinkWithin.
func boundaryNodes(rng *rand.Rand, n int) []network.Node {
	nodes := make([]network.Node, n)
	for i := range nodes {
		nodes[i] = network.Node{
			ID:     i,
			Pos:    geom.Pt(rng.Float64()*8, rng.Float64()*8),
			Radius: 1,
		}
	}
	jitters := []float64{0, geom.Eps / 2, -geom.Eps / 2, 2 * geom.Eps, -2 * geom.Eps}
	for i := range nodes {
		j := rng.Intn(n)
		if j == i {
			j = (i + 1) % n
		}
		r := nodes[i].Pos.Dist(nodes[j].Pos) + jitters[rng.Intn(len(jitters))]
		if r < 0.25 {
			r = 0.25
		}
		nodes[i].Radius = r
	}
	return nodes
}

// nearTangentNodes builds hub-and-ring clusters engineered to stress the
// skyline layer rather than the link layer: each cluster has a hub, a
// cocircular ring of equal-radius neighbors at evenly spaced angles
// (every pairwise crossing lands on a tie angle), and one neighbor whose
// radius equals its hub distance exactly, putting the hub on that disk's
// boundary (the near-tangent case for skyline.crossingAngles).
func nearTangentNodes(rng *rand.Rand, clusters int) []network.Node {
	var nodes []network.Node
	id := 0
	add := func(p geom.Point, r float64) {
		nodes = append(nodes, network.Node{ID: id, Pos: p, Radius: r})
		id++
	}
	for c := 0; c < clusters; c++ {
		hub := geom.Pt(float64(c)*10, rng.Float64())
		add(hub, 2)
		k := 3 + rng.Intn(4)
		d := 0.5 + rng.Float64()
		for i := 0; i < k; i++ {
			theta := float64(i) / float64(k) * geom.TwoPi
			add(geom.Pt(hub.X+d*math.Cos(theta), hub.Y+d*math.Sin(theta)), 2)
		}
		// Boundary-through-hub neighbor: radius exactly its hub distance.
		p := geom.Pt(hub.X+1.25, hub.Y+0.25)
		add(p, p.Dist(hub))
	}
	return nodes
}

// TestEngineAdversarialBoundaryDeployments runs the boundary-distance
// generator through the full differential matrix and the naive skyline
// oracle. Any divergence between the epsilon handling of the grid, the
// graph builder, the engine, or the skyline shows up as a forwarding-set
// mismatch here.
func TestEngineAdversarialBoundaryDeployments(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(400 + seed))
		nodes := boundaryNodes(rng, 40)
		fwd, hubIn, g := sequentialForwarding(t, nodes)
		naive := naiveForwarding(t, g)
		for u := range fwd {
			if !equalSets(fwd[u], naive[u]) {
				t.Fatalf("seed %d: node %d sequential=%v naive=%v", seed, u, fwd[u], naive[u])
			}
		}
		for _, cfg := range engineVariants() {
			label := fmt.Sprintf("boundary seed=%d workers=%d", seed, cfg.Workers)
			res, err := New(cfg).Compute(nodes)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertIdentical(t, label, res, fwd, hubIn, g)
		}
	}
}

// TestEngineAdversarialNearTangentDeployments does the same for the
// cocircular / tangent-to-hub generator, which drives the skyline merge
// through tie angles and zero-length candidate arcs.
func TestEngineAdversarialNearTangentDeployments(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(500 + seed))
		nodes := nearTangentNodes(rng, 4)
		fwd, hubIn, g := sequentialForwarding(t, nodes)
		naive := naiveForwarding(t, g)
		for u := range fwd {
			if !equalSets(fwd[u], naive[u]) {
				t.Fatalf("seed %d: node %d sequential=%v naive=%v", seed, u, fwd[u], naive[u])
			}
		}
		for _, cfg := range engineVariants() {
			label := fmt.Sprintf("tangent seed=%d workers=%d", seed, cfg.Workers)
			res, err := New(cfg).Compute(nodes)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertIdentical(t, label, res, fwd, hubIn, g)
		}
	}
}

// TestBoundaryScenarioGridGraphEngineAgree pins a crafted boundary
// scenario across all three layers that apply the link predicate: the
// spatial grid (squared space), the graph builder (linear space, with
// reciprocity), and the engine (grid + reverse check). Each layer is
// checked against hand-written expectations, so a regression in any one
// of them is reported by name instead of as a generic mismatch.
func TestBoundaryScenarioGridGraphEngineAgree(t *testing.T) {
	eps := geom.Eps
	nodes := []network.Node{
		{ID: 0, Pos: geom.Pt(0, 0), Radius: 1},            // exact-r link to 1
		{ID: 1, Pos: geom.Pt(1, 0), Radius: 1},            // exact-r links to 0, 4, 5
		{ID: 2, Pos: geom.Pt(0, 1+eps/2), Radius: 1},      // r+Eps/2 from 0: within tolerance
		{ID: 3, Pos: geom.Pt(0, -(1 + 2*eps)), Radius: 1}, // r+2Eps from 0: out of range
		{ID: 4, Pos: geom.Pt(2, 0), Radius: 1},            // exact-r link to 1 only
		{ID: 5, Pos: geom.Pt(1, 1), Radius: 1},            // exact-r to 1, ~r to 2
		{ID: 6, Pos: geom.Pt(0, 5), Radius: 10},           // reaches everyone, nobody reaches back
	}

	// Layer 1: the spatial grid answers out-reach queries (no
	// reciprocity): every point within node u's own radius, u included.
	outReach := [][]int{
		0: {0, 1, 2},
		1: {0, 1, 4, 5},
		2: {0, 2, 5},
		3: {3},
		4: {1, 4},
		5: {1, 2, 5},
		6: {0, 1, 2, 3, 4, 5, 6},
	}
	pts := make([]geom.Point, len(nodes))
	for i, n := range nodes {
		pts[i] = n.Pos
	}
	grid := spatial.NewGrid(pts, 1)
	for u, n := range nodes {
		got := grid.Within(n.Pos, n.Radius)
		sort.Ints(got)
		if !equalSets(got, outReach[u]) {
			t.Errorf("grid: node %d out-reach = %v, want %v", u, got, outReach[u])
		}
	}

	// Layer 2: the bidirectional graph keeps exactly the reciprocal
	// out-reach pairs. Node 6 reaches everyone but is unreachable, so it
	// must be isolated.
	neighbors := [][]int{
		0: {1, 2},
		1: {0, 4, 5},
		2: {0, 5},
		3: {},
		4: {1},
		5: {1, 2},
		6: {},
	}
	g, err := network.Build(nodes, network.Bidirectional)
	if err != nil {
		t.Fatal(err)
	}
	for u := range nodes {
		if !equalSets(g.Neighbors(u), neighbors[u]) {
			t.Errorf("graph: node %d neighbors = %v, want %v", u, g.Neighbors(u), neighbors[u])
		}
	}

	// Cross-check the hand-written tables against each other: graph
	// adjacency must be the symmetric core of the grid's out-reach sets.
	for u := range nodes {
		var sym []int
		for _, v := range outReach[u] {
			if v == u {
				continue
			}
			for _, w := range outReach[v] {
				if w == u {
					sym = append(sym, v)
					break
				}
			}
		}
		if !equalSets(sym, neighbors[u]) {
			t.Errorf("tables inconsistent at node %d: symmetric out-reach %v, neighbors %v", u, sym, neighbors[u])
		}
	}

	// Layer 3: the engine's neighborhoods (discovered through its own
	// grid + reverse-link check) must match the graph, on every variant.
	for _, cfg := range engineVariants() {
		res, err := New(cfg).Compute(nodes)
		if err != nil {
			t.Fatal(err)
		}
		for u := range nodes {
			if !equalSets(res.Neighbors[u], neighbors[u]) {
				t.Errorf("engine workers=%d: node %d neighbors = %v, want %v",
					cfg.Workers, u, res.Neighbors[u], neighbors[u])
			}
		}
	}
}

// TestEngineUpdateBoundaryMove audits the incremental dirty-set
// discovery at the link boundary: a node is moved to exactly the link
// distance, then Eps/2 past it (still linked), then 2Eps past it (link
// must drop), then onto the boundary of a different node. After every
// step the incremental result must be element-identical to both a
// from-scratch Compute and the sequential per-node pipeline — if Update
// and the graph builder disagreed about an exact-boundary link, the
// dirty set would be wrong and stale state would leak through here.
func TestEngineUpdateBoundaryMove(t *testing.T) {
	base := []network.Node{
		{ID: 0, Pos: geom.Pt(0, 0), Radius: 1},
		{ID: 1, Pos: geom.Pt(0.5, 0), Radius: 1},
		{ID: 2, Pos: geom.Pt(3, 0), Radius: 1},
	}
	steps := []struct {
		name string
		x    float64
	}{
		{"exactly-r-of-0", 1},
		{"r-plus-half-eps", 1 + geom.Eps/2},
		{"r-plus-2eps", 1 + 2*geom.Eps}, // link to 0 drops
		{"exactly-r-of-2", 2},           // link to 2 appears, at its boundary
		{"back-inside", 0.5},
	}
	for _, cfg := range engineVariants() {
		inc := New(cfg)
		if _, err := inc.Compute(base); err != nil {
			t.Fatal(err)
		}
		cur := append([]network.Node(nil), base...)
		for _, step := range steps {
			cur[1].Pos = geom.Pt(step.x, 0)
			label := fmt.Sprintf("%s workers=%d", step.name, cfg.Workers)
			got, err := inc.Update(cur)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			fwd, hubIn, g := sequentialForwarding(t, cur)
			assertIdentical(t, label, got, fwd, hubIn, g)
			fresh, err := New(cfg).Compute(cur)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for u := range cur {
				if !equalSets(got.Forwarding[u], fresh.Forwarding[u]) {
					t.Fatalf("%s: node %d incremental forwarding = %v, fresh = %v",
						label, u, got.Forwarding[u], fresh.Forwarding[u])
				}
			}
		}
	}
}
