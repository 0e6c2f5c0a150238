package routing

import (
	"math/rand"
	"testing"

	"repro/internal/deploy"
	"repro/internal/forwarding"
	"repro/internal/geom"
	"repro/internal/network"
)

// stretch returns Hops/Optimal (1 when no route or no optimal exists).
func (r Route) stretch() float64 {
	if !r.Found || r.Optimal <= 0 {
		return 1
	}
	return float64(r.Hops()) / float64(r.Optimal)
}

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

func TestDiscoverOnChain(t *testing.T) {
	g := chain(t, 5)
	r, err := Discover(g, 0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Found || r.Hops() != 4 || r.stretch() != 1 {
		t.Fatalf("route = %+v, want the 4-hop chain path", r)
	}
	if err := r.Validate(g, 0, 4); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 4}
	for i := range want {
		if r.Path[i] != want[i] {
			t.Fatalf("Path = %v, want %v", r.Path, want)
		}
	}
}

func TestDiscoverSelfAndUnreachable(t *testing.T) {
	g := chain(t, 3)
	r, err := Discover(g, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Found || r.Hops() != 0 || len(r.Path) != 1 {
		t.Errorf("self route = %+v", r)
	}
	nodes := []network.Node{
		{ID: 0, Pos: geom.Pt(0, 0), Radius: 1},
		{ID: 1, Pos: geom.Pt(50, 0), Radius: 1},
	}
	gd, err := network.Build(nodes, network.Bidirectional)
	if err != nil {
		t.Fatal(err)
	}
	r, err = Discover(gd, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Found || r.Hops() != -1 {
		t.Errorf("unreachable route = %+v", r)
	}
	if _, err := Discover(g, 0, 9, nil); err == nil {
		t.Error("bad destination must fail")
	}
}

// Flooding discovery finds hop-optimal routes (round-synchronous flooding
// is BFS).
func TestFloodingRoutesAreOptimal(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := paperGraph(t, deploy.Heterogeneous, 8, 1700+seed)
		dist := g.HopDistances(0)
		for dest := 1; dest < g.Len(); dest += 37 {
			r, err := Discover(g, 0, dest, nil)
			if err != nil {
				t.Fatal(err)
			}
			if (dist[dest] >= 0) != r.Found {
				t.Fatalf("seed %d dest %d: Found=%v but dist=%d", seed, dest, r.Found, dist[dest])
			}
			if !r.Found {
				continue
			}
			if err := r.Validate(g, 0, dest); err != nil {
				t.Fatal(err)
			}
			if r.Hops() != dist[dest] {
				t.Fatalf("seed %d dest %d: flooding route %d hops, BFS %d",
					seed, dest, r.Hops(), dist[dest])
			}
		}
	}
}

// Forwarding-set discovery must produce valid routes with bounded stretch
// and cost below flooding; cover-guaranteeing policies must find a route
// whenever one exists.
func TestForwardingSetDiscovery(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := paperGraph(t, deploy.Heterogeneous, 10, 1800+seed)
		dist := g.HopDistances(0)
		flood, err := Discover(g, 0, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, sel := range []forwarding.Selector{forwarding.Greedy{}, forwarding.SkylineRepair{}} {
			for dest := 1; dest < g.Len(); dest += 53 {
				r, err := Discover(g, 0, dest, sel)
				if err != nil {
					t.Fatal(err)
				}
				if dist[dest] >= 0 && !r.Found {
					t.Fatalf("seed %d %s dest %d: route exists (dist %d) but not found",
						seed, sel.Name(), dest, dist[dest])
				}
				if !r.Found {
					continue
				}
				if err := r.Validate(g, 0, dest); err != nil {
					t.Fatal(err)
				}
				if r.Hops() < dist[dest] {
					t.Fatalf("route shorter than BFS distance — impossible")
				}
				if r.stretch() > 2.5 {
					t.Errorf("seed %d %s dest %d: stretch %.2f", seed, sel.Name(), dest, r.stretch())
				}
				if r.Cost > flood.Cost {
					t.Errorf("seed %d %s: discovery cost %d exceeds flooding %d",
						seed, sel.Name(), r.Cost, flood.Cost)
				}
			}
		}
	}
}
