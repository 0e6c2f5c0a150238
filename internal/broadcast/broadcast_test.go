package broadcast

import (
	"math/rand"
	"testing"

	"repro/internal/deploy"
	"repro/internal/forwarding"
	"repro/internal/geom"
	"repro/internal/network"
)

func chainGraph(t *testing.T, n int) *network.Graph {
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
	nodes, err := deploy.Generate(deploy.PaperConfig(model, degree), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	g, err := network.Build(nodes, network.Bidirectional)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFloodingOnChain(t *testing.T) {
	g := chainGraph(t, 5)
	res, err := Run(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 4 || res.Reachable != 4 {
		t.Errorf("Delivered/Reachable = %d/%d, want 4/4", res.Delivered, res.Reachable)
	}
	if res.DeliveryRatio() != 1 {
		t.Errorf("DeliveryRatio = %v", res.DeliveryRatio())
	}
	// Every node transmits under flooding.
	if res.Transmissions != 5 {
		t.Errorf("Transmissions = %d, want 5", res.Transmissions)
	}
	if res.MaxHop != 4 {
		t.Errorf("MaxHop = %d, want 4", res.MaxHop)
	}
	// Each interior transmission is heard redundantly by the upstream
	// node: nodes 1..4 each deliver one redundant copy back, and node i's
	// transmission also reaches i+1 after it already has the message only
	// at the chain end. Just require redundancy to be positive.
	if res.Redundant == 0 {
		t.Error("flooding on a chain must produce redundant receptions")
	}
}

func TestSourceOutOfRange(t *testing.T) {
	g := chainGraph(t, 3)
	if _, err := Run(g, -1, nil); err == nil {
		t.Error("negative source must fail")
	}
	if _, err := Run(g, 3, nil); err == nil {
		t.Error("out-of-range source must fail")
	}
}

func TestDisconnectedComponentNotCounted(t *testing.T) {
	nodes := []network.Node{
		{ID: 0, Pos: geom.Pt(0, 0), Radius: 1},
		{ID: 1, Pos: geom.Pt(0.5, 0), Radius: 1},
		{ID: 2, Pos: geom.Pt(10, 10), Radius: 1},
	}
	g, err := network.Build(nodes, network.Bidirectional)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reachable != 1 || res.Delivered != 1 {
		t.Errorf("Reachable/Delivered = %d/%d, want 1/1", res.Reachable, res.Delivered)
	}
	if res.Received[2] {
		t.Error("isolated node must not receive")
	}
	if res.DeliveryRatio() != 1 {
		t.Errorf("DeliveryRatio = %v", res.DeliveryRatio())
	}
}

// With cover-guaranteeing selectors, every reachable node must receive the
// message, while transmissions must not exceed flooding's.
func TestForwardingSetBroadcastReachesAll(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		for _, model := range []deploy.RadiusModel{deploy.Homogeneous, deploy.Heterogeneous} {
			g := paperGraph(t, model, 8, 500+seed)
			flood, err := Run(g, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if flood.DeliveryRatio() != 1 {
				t.Fatalf("flooding must reach every reachable node")
			}
			for _, sel := range []forwarding.Selector{forwarding.Greedy{}, forwarding.SkylineRepair{}} {
				res, err := Run(g, 0, sel)
				if err != nil {
					t.Fatalf("%v %s: %v", model, sel.Name(), err)
				}
				if res.DeliveryRatio() != 1 {
					t.Fatalf("%v %s: delivery ratio %v < 1 (delivered %d of %d)",
						model, sel.Name(), res.DeliveryRatio(), res.Delivered, res.Reachable)
				}
				if res.Transmissions > flood.Transmissions {
					t.Fatalf("%v %s: %d transmissions exceed flooding's %d",
						model, sel.Name(), res.Transmissions, flood.Transmissions)
				}
				if res.Redundant > flood.Redundant {
					t.Fatalf("%v %s: redundancy %d exceeds flooding's %d",
						model, sel.Name(), res.Redundant, flood.Redundant)
				}
			}
		}
	}
}

// In homogeneous networks the skyline selector guarantees 2-hop coverage,
// so skyline-based broadcast must be complete there too.
func TestSkylineBroadcastCompleteHomogeneous(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := paperGraph(t, deploy.Homogeneous, 10, 600+seed)
		res, err := Run(g, 0, forwarding.Skyline{})
		if err != nil {
			t.Fatal(err)
		}
		if res.DeliveryRatio() != 1 {
			t.Fatalf("seed %d: homogeneous skyline broadcast incomplete: %d of %d",
				seed, res.Delivered, res.Reachable)
		}
	}
}

// Determinism: identical inputs give identical results.
func TestRunDeterministic(t *testing.T) {
	g := paperGraph(t, deploy.Heterogeneous, 8, 800)
	a, err := Run(g, 0, forwarding.Greedy{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, 0, forwarding.Greedy{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Transmissions != b.Transmissions || a.Delivered != b.Delivered ||
		a.Redundant != b.Redundant || a.MaxHop != b.MaxHop {
		t.Errorf("non-deterministic results: %+v vs %+v", a, b)
	}
}

// The Figure 5.6 pathology at network scale: skyline relaying in
// heterogeneous networks may strand nodes, which is exactly the drawback
// the paper reports. Verify the simulator can exhibit ratios below 1 while
// repair always delivers.
func TestHeterogeneousSkylineCanStrand(t *testing.T) {
	nodes := []network.Node{
		{ID: 0, Pos: geom.Pt(0, 0), Radius: 1},
		{ID: 1, Pos: geom.Pt(0.8, 0.3), Radius: 1},
		{ID: 2, Pos: geom.Pt(0.8, -0.3), Radius: 1},
		{ID: 3, Pos: geom.Pt(0.5, 0), Radius: 2.5},
		{ID: 4, Pos: geom.Pt(1.7, 0.3), Radius: 0.95},
		{ID: 5, Pos: geom.Pt(1.7, -0.3), Radius: 0.95},
	}
	g, err := network.Build(nodes, network.Bidirectional)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, 0, forwarding.Skyline{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRatio() >= 1 {
		t.Errorf("skyline relaying should strand u4/u5 here, ratio = %v", res.DeliveryRatio())
	}
	rep, err := Run(g, 0, forwarding.SkylineRepair{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeliveryRatio() != 1 {
		t.Errorf("repair must deliver everywhere, ratio = %v", rep.DeliveryRatio())
	}
}
