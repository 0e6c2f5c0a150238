package cds

import (
	"math/rand"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/deploy"
	"repro/internal/geom"
	"repro/internal/network"
)

func chain(t *testing.T, n int) *network.Graph {
	t.Helper()
	nodes := make([]network.Node, n)
	for i := range nodes {
		nodes[i] = network.Node{ID: i, Pos: geom.Pt(float64(i), 0), Radius: 1.2}
	}
	g, err := network.Build(nodes, network.Bidirectional)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func paperGraph(t *testing.T, model deploy.RadiusModel, degree float64, seed int64) *network.Graph {
	t.Helper()
	nodes, err := deploy.Generate(deploy.PaperConfig(model, degree),
		rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	g, err := network.Build(nodes, network.Bidirectional)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestWuLiChain(t *testing.T) {
	g := chain(t, 5)
	set := WuLi(g)
	// On a chain, exactly the interior nodes are marked (endpoints have a
	// single neighbor) and no rule unmarks them (their neighborhoods are
	// not covered by any single or pair of neighbors' neighborhoods...
	// node 1 has N[1] = {0,1,2} ⊆ N[2] = {1,2,3}? 0 ∉ N[2], so no).
	want := []int{1, 2, 3}
	if len(set) != len(want) {
		t.Fatalf("WuLi(chain) = %v, want %v", set, want)
	}
	for i := range want {
		if set[i] != want[i] {
			t.Fatalf("WuLi(chain) = %v, want %v", set, want)
		}
	}
}

func TestWuLiClique(t *testing.T) {
	// In a clique nobody has two unconnected neighbors: empty CDS.
	var nodes []network.Node
	for i := 0; i < 5; i++ {
		nodes = append(nodes, network.Node{ID: i, Pos: geom.Pt(float64(i)*0.1, 0), Radius: 5})
	}
	g, err := network.Build(nodes, network.Bidirectional)
	if err != nil {
		t.Fatal(err)
	}
	if set := WuLi(g); len(set) != 0 {
		t.Errorf("WuLi(clique) = %v, want empty", set)
	}
}

// On connected random networks, the Wu–Li result must dominate the graph
// and be connected; with a clique exception (empty set) handled above.
func TestWuLiDominatingAndConnected(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		for _, model := range []deploy.RadiusModel{deploy.Homogeneous, deploy.Heterogeneous} {
			g := paperGraph(t, model, 10, 1400+seed)
			set := WuLi(g)
			// The marking process leaves complete components (including
			// isolated pairs at the region edge) unmarked, so restrict the
			// guarantees to the source's component, which at paper density
			// is the giant component.
			dist := g.HopDistances(0)
			var inComp []int
			for _, v := range set {
				if dist[v] >= 0 {
					inComp = append(inComp, v)
				}
			}
			if len(inComp) == 0 {
				continue
			}
			if !isDominatingSet(g, inComp, 0) {
				t.Fatalf("%v seed %d: Wu–Li set not dominating on the source component", model, seed)
			}
			if !isConnectedSet(g, inComp) {
				t.Fatalf("%v seed %d: Wu–Li set not connected on the source component", model, seed)
			}
		}
	}
}

func TestMISConnectValidity(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		g := paperGraph(t, deploy.Heterogeneous, 10, 1500+seed)
		set, err := MISConnect(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !isDominatingSet(g, set, 0) {
			t.Fatalf("seed %d: MIS CDS not dominating over source component", seed)
		}
		if !isConnectedSet(g, set) {
			t.Fatalf("seed %d: MIS CDS not connected (size %d)", seed, len(set))
		}
	}
	if _, err := MISConnect(chain(t, 3), 9); err == nil {
		t.Error("out-of-range root must fail")
	}
}

func TestBackboneBroadcastDelivers(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := paperGraph(t, deploy.Heterogeneous, 10, 1600+seed)
		for _, build := range []struct {
			name string
			set  func() []int
		}{
			{"wuli", func() []int { return WuLi(g) }},
			{"mis", func() []int { s, _ := MISConnect(g, 0); return s }},
		} {
			set := build.set()
			res, err := broadcast.RunWithBackbone(g, 0, set)
			if err != nil {
				t.Fatal(err)
			}
			if res.DeliveryRatio() != 1 {
				t.Fatalf("%s seed %d: delivery %v with backbone of %d nodes",
					build.name, seed, res.DeliveryRatio(), len(set))
			}
			flood, err := broadcast.Run(g, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Transmissions > flood.Transmissions {
				t.Fatalf("%s seed %d: backbone uses more transmissions than flooding",
					build.name, seed)
			}
		}
	}
}

func TestIsConnectedSet(t *testing.T) {
	g := chain(t, 5)
	if !isConnectedSet(g, []int{1, 2, 3}) {
		t.Error("contiguous chain interior is connected")
	}
	if isConnectedSet(g, []int{0, 4}) {
		t.Error("chain endpoints alone are not connected")
	}
	if !isConnectedSet(g, []int{2}) || !isConnectedSet(g, nil) {
		t.Error("sets of size ≤ 1 are trivially connected")
	}
}

func TestIsDominatingSet(t *testing.T) {
	g := chain(t, 5)
	if !isDominatingSet(g, []int{1, 3}, -1) {
		t.Error("{1,3} dominates the 5-chain")
	}
	if isDominatingSet(g, []int{0}, -1) {
		t.Error("{0} does not dominate the 5-chain")
	}
	// Restricted to the component of node 0 on a disconnected graph.
	nodes := []network.Node{
		{ID: 0, Pos: geom.Pt(0, 0), Radius: 1.2},
		{ID: 1, Pos: geom.Pt(1, 0), Radius: 1.2},
		{ID: 2, Pos: geom.Pt(50, 0), Radius: 1.2},
	}
	gd, err := network.Build(nodes, network.Bidirectional)
	if err != nil {
		t.Fatal(err)
	}
	if !isDominatingSet(gd, []int{0}, 0) {
		t.Error("{0} dominates node 0's component")
	}
}

func TestBackboneValidation(t *testing.T) {
	g := chain(t, 3)
	if _, err := broadcast.RunWithBackbone(g, 9, nil); err == nil {
		t.Error("bad source must fail")
	}
	if _, err := broadcast.RunWithBackbone(g, 0, []int{99}); err == nil {
		t.Error("bad backbone node must fail")
	}
}

// isDominatingSet reports whether every node of g is in the set or
// adjacent to a member. restrict limits the check to nodes reachable from
// a given root (pass −1 to check all nodes).
func isDominatingSet(g *network.Graph, set []int, root int) bool {
	in := make(map[int]bool, len(set))
	for _, v := range set {
		in[v] = true
	}
	var dist []int
	if root >= 0 {
		dist = g.HopDistances(root)
	}
	for v := 0; v < g.Len(); v++ {
		if root >= 0 && dist[v] < 0 {
			continue
		}
		if in[v] {
			continue
		}
		dominated := false
		for _, w := range g.Neighbors(v) {
			if in[w] {
				dominated = true
				break
			}
		}
		if !dominated {
			// A node with no neighbors in the considered region cannot be
			// dominated unless it is a member; isolated nodes fail here.
			if g.Degree(v) == 0 && root < 0 {
				continue // isolated nodes are conventionally exempt
			}
			return false
		}
	}
	return true
}

// isConnectedSet reports whether the subgraph induced by the set is
// connected (trivially true for sets of size ≤ 1).
func isConnectedSet(g *network.Graph, set []int) bool {
	if len(set) <= 1 {
		return true
	}
	in := make(map[int]bool, len(set))
	for _, v := range set {
		in[v] = true
	}
	seen := map[int]bool{set[0]: true}
	queue := []int{set[0]}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(u) {
			if in[w] && !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return len(seen) == len(set)
}
