package mldcs

import (
	"math/rand"
	"strings"
	"testing"
)

func TestComputeSkylineFacade(t *testing.T) {
	hub := Pt(3, 3)
	disks := []Disk{
		NewDisk(3.5, 3, 1.5),
		NewDisk(2.5, 3, 1.5),
		NewDisk(3, 3, 0.6), // buried
	}
	sl, err := ComputeSkyline(hub, disks)
	if err != nil {
		t.Fatal(err)
	}
	if err := sl.Validate(len(disks)); err != nil {
		t.Fatal(err)
	}
	set, err := SkylineSet(hub, disks)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 || set[0] != 0 || set[1] != 1 {
		t.Errorf("SkylineSet = %v, want [0 1]", set)
	}
}

func TestCoverAndForwardingSetFacade(t *testing.T) {
	hub := NewDisk(0, 0, 1)
	neighbors := []Disk{
		NewDisk(0.9, 0, 1.5),  // pokes out east
		NewDisk(-0.9, 0, 1.5), // pokes out west
		NewDisk(0.1, 0, 1),    // buried? covers north/south a bit; keep generic
	}
	cover, err := CoverSet(hub, neighbors)
	if err != nil {
		t.Fatal(err)
	}
	if len(cover) == 0 {
		t.Fatal("cover must not be empty")
	}
	fwd, err := ForwardingSet(hub, neighbors)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range fwd {
		if i < 0 || i >= len(neighbors) {
			t.Errorf("forwarding index %d out of range", i)
		}
	}
	// ForwardingSet must be CoverSet minus the hub, shifted down by one.
	want := make(map[int]bool)
	for _, i := range cover {
		if i > 0 {
			want[i-1] = true
		}
	}
	if len(want) != len(fwd) {
		t.Errorf("ForwardingSet %v does not match CoverSet %v", fwd, cover)
	}
}

func TestNetworkAndBroadcastFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nodes, err := PaperDeployment("heterogeneous", 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildNetwork(nodes, Bidirectional)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := SelectorByName("greedy")
	if err != nil {
		t.Fatal(err)
	}
	set, err := SelectForwarders(g, 0, sel)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range set {
		if !g.IsNeighbor(0, w) {
			t.Errorf("forwarder %d is not a neighbor of the source", w)
		}
	}
	res, err := Broadcast(g, 0, sel)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRatio() != 1 {
		t.Errorf("greedy broadcast delivery = %v", res.DeliveryRatio())
	}
	if _, err := PaperDeployment("nope", 8, rng); err == nil {
		t.Error("unknown model must fail")
	}
	if _, err := SelectorByName("nope"); err == nil {
		t.Error("unknown selector must fail")
	}
}

func TestRunExperimentDispatch(t *testing.T) {
	cfg := ExperimentConfig{Replications: 4, Seed: 2, Workers: 2, Degrees: []float64{6}}
	for _, id := range ExperimentIDs() {
		if id == "scaling" {
			continue // exercised separately with small sizes via internal API
		}
		fig, err := RunExperiment(id, cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if fig.ID == "" || len(fig.Series) == 0 {
			t.Errorf("%s: empty figure", id)
		}
	}
	if _, err := RunExperiment("nope", cfg); err == nil {
		t.Error("unknown experiment must fail")
	}
}

func TestCDSFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	nodes, err := PaperDeployment("heterogeneous", 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildNetwork(nodes, Bidirectional)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{"wuli", "mis"} {
		set, err := ConnectedDominatingSet(g, method, 0)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		res, err := BroadcastBackbone(g, 0, set)
		if err != nil {
			t.Fatal(err)
		}
		if res.DeliveryRatio() != 1 {
			t.Errorf("%s backbone broadcast delivery = %v", method, res.DeliveryRatio())
		}
	}
	if _, err := ConnectedDominatingSet(g, "nope", 0); err == nil {
		t.Error("unknown CDS method must fail")
	}
}

func TestRouteFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	nodes, err := PaperDeployment("homogeneous", 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildNetwork(nodes, Bidirectional)
	if err != nil {
		t.Fatal(err)
	}
	r, err := DiscoverRoute(g, 0, g.Len()-1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Found {
		if err := r.Validate(g, 0, g.Len()-1); err != nil {
			t.Fatal(err)
		}
		if r.Hops() != r.Optimal {
			t.Errorf("flooding route %d hops, optimal %d", r.Hops(), r.Optimal)
		}
	}
}

func TestDeploymentTraceFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	nodes, err := PaperDeployment("homogeneous", 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := WriteDeployment(&buf, nodes); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDeployment(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(nodes) || got[3] != nodes[3] {
		t.Error("trace round trip lost data")
	}
}

func TestRunScenarioFacade(t *testing.T) {
	data := []byte(`{"name": "t", "replications": 3, "seed": 4, "degrees": [6],
		"experiments": [{"id": "fig5.1"}, {"id": "repair"}]}`)
	figs, err := RunScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 || figs[0].ID != "fig5.1" || figs[1].ID != "fig5.6" {
		t.Errorf("scenario figures: %v, %v", figs[0].ID, figs[1].ID)
	}
	if _, err := RunScenario([]byte(`{"experiments": [{"id": "bogus"}]}`)); err == nil {
		t.Error("unknown experiment in scenario must fail")
	}
	if _, err := RunScenario([]byte("{broken")); err == nil {
		t.Error("broken scenario JSON must fail")
	}
}

func TestRenderFigureAndTreeSVG(t *testing.T) {
	fig, err := RunExperiment("fig5.4", ExperimentConfig{
		Replications: 3, Seed: 6, Workers: 2, Degrees: []float64{6, 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	svg := RenderFigureSVG(fig)
	if !strings.Contains(svg, "<svg") || !strings.Contains(svg, "<polyline") {
		t.Error("figure SVG missing chart elements")
	}

	rng := rand.New(rand.NewSource(14))
	nodes, err := PaperDeployment("homogeneous", 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildNetwork(nodes, Bidirectional)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Broadcast(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	tree := RenderBroadcastTreeSVG(g, 0, res)
	if !strings.Contains(tree, "<svg") || !strings.Contains(tree, "<line") {
		t.Error("tree SVG missing elements")
	}
}

func TestDefaultExperimentConfig(t *testing.T) {
	cfg := DefaultExperimentConfig()
	if cfg.Replications != 200 {
		t.Errorf("Replications = %d", cfg.Replications)
	}
}

func TestRenderFacades(t *testing.T) {
	hub := Pt(1, 1)
	disks := []Disk{NewDisk(1.2, 1, 1), NewDisk(0.8, 1, 1)}
	sl, err := ComputeSkyline(hub, disks)
	if err != nil {
		t.Fatal(err)
	}
	svg := RenderLocalSetSVG(hub, disks, sl)
	if !strings.Contains(svg, "<svg") {
		t.Error("local-set SVG missing document element")
	}
	rng := rand.New(rand.NewSource(5))
	nodes, _ := PaperDeployment("homogeneous", 6, rng)
	g, _ := BuildNetwork(nodes, Bidirectional)
	svg = RenderNetworkSVG(g, 0, nil)
	if !strings.Contains(svg, "<svg") {
		t.Error("network SVG missing document element")
	}
}
