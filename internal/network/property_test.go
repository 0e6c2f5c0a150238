package network

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// graphInput compactly describes a random network for testing/quick.
type graphInput struct {
	Seed int64
	N    uint8
	Het  bool
}

func (in graphInput) nodes() []Node {
	n := int(in.N)%120 + 2
	rng := rand.New(rand.NewSource(in.Seed))
	nodes := make([]Node, n)
	for i := range nodes {
		r := 1.0
		if in.Het {
			r = 1 + rng.Float64()
		}
		nodes[i] = Node{ID: i, Pos: geom.Pt(rng.Float64()*12.5, rng.Float64()*12.5), Radius: r}
	}
	return nodes
}

// Property: bidirectional adjacency is symmetric.
func TestQuickBidirectionalSymmetry(t *testing.T) {
	f := func(in graphInput) bool {
		g, err := Build(in.nodes(), Bidirectional)
		if err != nil {
			return false
		}
		for u := 0; u < g.Len(); u++ {
			for _, v := range g.Neighbors(u) {
				if !g.IsNeighbor(v, u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: in- and out-neighbor sets coincide under the bidirectional
// model and are transposes under the unidirectional model.
func TestQuickInOutConsistency(t *testing.T) {
	f := func(in graphInput) bool {
		nodes := in.nodes()
		gb, err := Build(nodes, Bidirectional)
		if err != nil {
			return false
		}
		for u := 0; u < gb.Len(); u++ {
			if !equalIntSlices(gb.Neighbors(u), gb.inNeighbors(u)) {
				return false
			}
		}
		gu, err := Build(nodes, Unidirectional)
		if err != nil {
			return false
		}
		for u := 0; u < gu.Len(); u++ {
			for _, v := range gu.Neighbors(u) {
				found := false
				for _, w := range gu.inNeighbors(v) {
					if w == u {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: TwoHop is disjoint from the closed 1-hop neighborhood and every
// 2-hop node is adjacent to some 1-hop neighbor.
func TestQuickTwoHopStructure(t *testing.T) {
	f := func(in graphInput) bool {
		g, err := Build(in.nodes(), Bidirectional)
		if err != nil {
			return false
		}
		for u := 0; u < g.Len(); u++ {
			one := make(map[int]bool, g.Degree(u))
			one[u] = true
			for _, v := range g.Neighbors(u) {
				one[v] = true
			}
			for _, w := range g.TwoHop(u) {
				if one[w] {
					return false
				}
				viaNeighbor := false
				for _, v := range g.Neighbors(u) {
					if g.IsNeighbor(v, w) {
						viaNeighbor = true
						break
					}
				}
				if !viaNeighbor {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: BFS distances satisfy the edge relaxation inequality
// |d(u) − d(v)| ≤ 1 for every bidirectional edge with both ends reachable,
// and TwoHop(u) is exactly the distance-2 shell of u.
func TestQuickHopDistanceConsistency(t *testing.T) {
	f := func(in graphInput) bool {
		g, err := Build(in.nodes(), Bidirectional)
		if err != nil {
			return false
		}
		d := g.HopDistances(0)
		for u := 0; u < g.Len(); u++ {
			for _, v := range g.Neighbors(u) {
				if d[u] >= 0 && d[v] >= 0 {
					diff := d[u] - d[v]
					if diff < -1 || diff > 1 {
						return false
					}
				}
				if (d[u] >= 0) != (d[v] >= 0) {
					return false // reachability is component-wide
				}
			}
		}
		du := g.HopDistances(1 % g.Len())
		src := 1 % g.Len()
		twoSet := make(map[int]bool)
		for _, w := range g.TwoHop(src) {
			twoSet[w] = true
		}
		for v := 0; v < g.Len(); v++ {
			if (du[v] == 2) != twoSet[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the LocalSet derived from any node of a bidirectional graph
// validates (the graph construction enforces the mutual-containment
// conditions).
func TestQuickLocalSetAlwaysValid(t *testing.T) {
	f := func(in graphInput) bool {
		g, err := Build(in.nodes(), Bidirectional)
		if err != nil {
			return false
		}
		for u := 0; u < g.Len(); u++ {
			ls, ids, err := g.LocalSet(u)
			if err != nil {
				return false
			}
			if len(ids) != g.Degree(u) {
				return false
			}
			if err := ls.Validate(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
