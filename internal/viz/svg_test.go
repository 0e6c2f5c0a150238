package viz

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/deploy"
	"repro/internal/forwarding"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/skyline"
)

func TestCanvasPrimitives(t *testing.T) {
	c := NewCanvas(10)
	c.Circle(geom.Pt(0, 0), 1, "#000", 0.1)
	c.Dot(geom.Pt(1, 1), 0.1, "#f00")
	c.Line(geom.Pt(0, 0), geom.Pt(1, 1), "#0f0", 0.05)
	out := c.String()
	for _, want := range []string{"<svg", "</svg>", "<circle", "<line"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestEmptyCanvas(t *testing.T) {
	out := NewCanvas(0).String()
	if !strings.HasPrefix(out, "<svg") || !strings.Contains(out, "</svg>") {
		t.Errorf("empty canvas must still render a document: %q", out)
	}
}

func TestArcEndpoints(t *testing.T) {
	// The rendered arc's endpoints must lie on the disk's circle.
	hub := geom.Pt(1, 2)
	d := geom.NewDisk(1.3, 2.1, 1.5)
	c := NewCanvas(10)
	c.Arc(hub, d, 0.5, 2.0, "#f00", 0.1)
	out := c.String()
	if !strings.Contains(out, "<path") || !strings.Contains(out, "A 1.5") {
		t.Errorf("arc path missing: %q", out)
	}
}

func TestRenderLocalSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	disks := make([]geom.Disk, 8)
	for i := range disks {
		r := 1 + rng.Float64()
		disks[i] = geom.Disk{C: geom.Unit(rng.Float64() * geom.TwoPi).Scale(rng.Float64() * r * 0.9), R: r}
	}
	sl, err := skyline.Compute(disks)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderLocalSet(disks, sl)
	if strings.Count(out, "<circle") < len(disks) {
		t.Error("every disk must be drawn")
	}
	if strings.Count(out, "<path") != len(sl) {
		t.Errorf("drew %d arcs, skyline has %d", strings.Count(out, "<path"), len(sl))
	}
}

func TestRenderBroadcastTree(t *testing.T) {
	nodes, err := deploy.Generate(deploy.PaperConfig(deploy.Homogeneous, 6),
		rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	g, err := network.Build(nodes, network.Bidirectional)
	if err != nil {
		t.Fatal(err)
	}
	res, err := broadcast.Run(g, 0, forwarding.Greedy{})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderBroadcastTree(g, 0, res.Parent, res.Transmitted)
	if !strings.Contains(out, "<svg") || !strings.Contains(out, "<line") {
		t.Error("tree rendering missing elements")
	}
	// The number of tree edges equals the number of delivered nodes.
	if got := strings.Count(out, "<line"); got != res.Delivered {
		t.Errorf("tree has %d edges, delivered %d nodes", got, res.Delivered)
	}
	// Nil transmitted slice must not panic.
	_ = RenderBroadcastTree(g, 0, res.Parent, nil)
}

func TestRenderNetwork(t *testing.T) {
	nodes, err := deploy.Generate(deploy.PaperConfig(deploy.Heterogeneous, 6),
		rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	g, err := network.Build(nodes, network.Bidirectional)
	if err != nil {
		t.Fatal(err)
	}
	set, err := (forwarding.Skyline{}).Select(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderNetwork(g, 0, set)
	if !strings.Contains(out, "#2222cc") {
		t.Error("source highlight missing")
	}
	if len(set) > 0 && !strings.Contains(out, "#cc2222") {
		t.Error("forwarding-set highlight missing")
	}
}
