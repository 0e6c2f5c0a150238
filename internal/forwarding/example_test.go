package forwarding_test

import (
	"fmt"

	"repro/internal/forwarding"
	"repro/internal/geom"
	"repro/internal/network"
)

// fig56Nodes is the paper's Figure 5.6 construction: u3's disk dominates
// the source's neighborhood, but the 2-hop nodes u4/u5 cannot hear u3
// back.
func fig56Nodes() []network.Node {
	return []network.Node{
		{ID: 0, Pos: geom.Pt(0, 0), Radius: 1},
		{ID: 1, Pos: geom.Pt(0.8, 0.3), Radius: 1},
		{ID: 2, Pos: geom.Pt(0.8, -0.3), Radius: 1},
		{ID: 3, Pos: geom.Pt(0.5, 0), Radius: 2.5},
		{ID: 4, Pos: geom.Pt(1.7, 0.3), Radius: 0.95},
		{ID: 5, Pos: geom.Pt(1.7, -0.3), Radius: 0.95},
	}
}

// The skyline selector needs only 1-hop information; on the Figure 5.6
// topology it picks the single dominating disk — and misses both 2-hop
// nodes, which the optimal (2-hop-informed) selector covers.
func ExampleSkyline_Select() {
	g, err := network.Build(fig56Nodes(), network.Bidirectional)
	if err != nil {
		panic(err)
	}
	sky, _ := forwarding.Skyline{}.Select(g, 0)
	opt, _ := forwarding.Optimal{}.Select(g, 0)
	fmt.Println("skyline:", sky, "covers", forwarding.CoverageRatio(g, 0, sky))
	fmt.Println("optimal:", opt, "covers", forwarding.CoverageRatio(g, 0, opt))
	// Output:
	// skyline: [3] covers 0
	// optimal: [1 2] covers 1
}

// The repair extension keeps the skyline base and patches the misses.
func ExampleSkylineRepair_Select() {
	g, err := network.Build(fig56Nodes(), network.Bidirectional)
	if err != nil {
		panic(err)
	}
	set, _ := forwarding.SkylineRepair{}.Select(g, 0)
	fmt.Println(set, "covers", forwarding.CoverageRatio(g, 0, set))
	// Output: [1 2 3] covers 1
}
