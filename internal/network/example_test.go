package network_test

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/network"
)

// Building a heterogeneous disk graph: node 0's big radius cannot create a
// link to node 2, whose small radius cannot reach back (bidirectional
// model).
func ExampleBuild() {
	nodes := []network.Node{
		{ID: 0, Pos: geom.Pt(0, 0), Radius: 3},
		{ID: 1, Pos: geom.Pt(1, 0), Radius: 2},
		{ID: 2, Pos: geom.Pt(1.8, 0), Radius: 1},
	}
	g, err := network.Build(nodes, network.Bidirectional)
	if err != nil {
		panic(err)
	}
	fmt.Println("neighbors of 0:", g.Neighbors(0))
	fmt.Println("neighbors of 2:", g.Neighbors(2))

	// Under the unidirectional (reception) model node 2 does hear node 0.
	gu, err := network.Build(nodes, network.Unidirectional)
	if err != nil {
		panic(err)
	}
	fmt.Println("0 reaches:", gu.Neighbors(0))
	// Output:
	// neighbors of 0: [1]
	// neighbors of 2: [1]
	// 0 reaches: [1 2]
}

// MoveNode patches the adjacency incrementally when a node relocates.
func ExampleGraph_MoveNode() {
	nodes := []network.Node{
		{ID: 0, Pos: geom.Pt(0, 0), Radius: 1.2},
		{ID: 1, Pos: geom.Pt(1, 0), Radius: 1.2},
		{ID: 2, Pos: geom.Pt(5, 0), Radius: 1.2},
	}
	g, err := network.Build(nodes, network.Bidirectional)
	if err != nil {
		panic(err)
	}
	fmt.Println("before:", g.Neighbors(2))
	if err := g.MoveNode(2, geom.Pt(2, 0)); err != nil {
		panic(err)
	}
	fmt.Println("after: ", g.Neighbors(2))
	// Output:
	// before: []
	// after:  [1]
}
