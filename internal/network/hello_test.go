package network

import "sort"

// The paper (§5.1) assumes nodes learn their neighborhoods from periodic
// HELLO beacons: a first round of beacons carrying (id, position, radius)
// yields 1-hop tables, and a second round in which each beacon piggybacks
// the sender's 1-hop neighbor list yields 2-hop tables. This file
// simulates that discovery process over the reception (unidirectional)
// edges so the information each node ends up with is exactly what the
// physical process would deliver — including the asymmetries that motivate
// the paper's Figure 5.6 discussion. The tests check Build's bidirectional
// adjacency and TwoHop against it.

// neighborTable is the local view a node builds from HELLO beacons.
type neighborTable struct {
	// OneHop lists the bidirectional 1-hop neighbors: nodes the owner
	// heard and that also heard the owner (learned from the second-round
	// beacon, which tells the owner whether it appears in the sender's
	// list). Sorted.
	OneHop []int
	// TwoHop lists the nodes at distance exactly two through OneHop
	// members, learned from the piggybacked neighbor lists. Sorted.
	TwoHop []int
	// Heard lists every node whose first-round beacon arrived, i.e. the
	// in-neighbors regardless of symmetry. Sorted.
	Heard []int
}

// discoverNeighborhoods simulates the two HELLO rounds for every node and
// returns the per-node tables. The graph must have been built with the
// Unidirectional model to expose asymmetric links faithfully; with the
// Bidirectional model the result reduces to the graph's own adjacency.
func discoverNeighborhoods(g *Graph) []neighborTable {
	n := g.Len()
	tables := make([]neighborTable, n)

	// Round 1: every node beacons; receivers record who they heard.
	for u := 0; u < n; u++ {
		heard := g.inNeighbors(u)
		tables[u].Heard = append([]int(nil), heard...)
	}

	// Round 2: every node beacons its heard-list. A receiver u that hears
	// v and finds itself in v's list concludes the link u–v is
	// bidirectional. It also learns v's bidirectional neighbors as 2-hop
	// candidates.
	heardSet := make([]map[int]bool, n)
	for u := 0; u < n; u++ {
		heardSet[u] = make(map[int]bool, len(tables[u].Heard))
		for _, v := range tables[u].Heard {
			heardSet[u][v] = true
		}
	}
	for u := 0; u < n; u++ {
		var one []int
		for _, v := range tables[u].Heard {
			if heardSet[v][u] {
				one = append(one, v)
			}
		}
		sort.Ints(one)
		tables[u].OneHop = one
	}
	for u := 0; u < n; u++ {
		mark := map[int]bool{u: true}
		for _, v := range tables[u].OneHop {
			mark[v] = true
		}
		var two []int
		for _, v := range tables[u].OneHop {
			for _, w := range tables[v].OneHop {
				if !mark[w] {
					mark[w] = true
					two = append(two, w)
				}
			}
		}
		sort.Ints(two)
		tables[u].TwoHop = two
	}
	return tables
}
