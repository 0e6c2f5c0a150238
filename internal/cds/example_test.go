package cds

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/network"
)

// The Wu–Li marking process on a 5-node chain: the endpoints are never
// marked (their neighborhoods are cliques), the interior forms the CDS.
func ExampleWuLi() {
	nodes := make([]network.Node, 5)
	for i := range nodes {
		nodes[i] = network.Node{ID: i, Pos: geom.Pt(float64(i), 0), Radius: 1.2}
	}
	g, err := network.Build(nodes, network.Bidirectional)
	if err != nil {
		panic(err)
	}
	set := WuLi(g)
	fmt.Println(set, isDominatingSet(g, set, -1), isConnectedSet(g, set))
	// Output: [1 2 3] true true
}
