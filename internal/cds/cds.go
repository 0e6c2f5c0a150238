// Package cds builds connected dominating sets, the backbone-based
// alternative to per-node forwarding sets among the broadcast schemes the
// paper surveys (references [8] and [11]): once a CDS is in place, only
// backbone nodes relay broadcasts.
//
// Two classic localized constructions are provided:
//
//   - WuLi: the marking process of Wu & Li ("On calculating connected
//     dominating set for efficient routing in ad hoc wireless networks"),
//     where a node marks itself if it has two neighbors that are not
//     directly connected, followed by the degree/ID-based pruning Rules 1
//     and 2 that unmark nodes whose neighborhoods are covered by one or
//     two connected marked neighbors with higher priority.
//   - MISConnect: a maximal-independent-set dominating set (greedy by ID
//     over a BFS layering, in the spirit of Alzoubi, Wan & Frieder)
//     connected by adding bridge nodes between nearby MIS members.
//
// Both run on the bidirectional disk graph and use only 1-hop/2-hop
// information per node, like every algorithm in this repository.
package cds

import (
	"fmt"
	"sort"

	"repro/internal/network"
)

// WuLi returns the connected dominating set produced by the Wu–Li marking
// process with pruning Rules 1 and 2, as a sorted node ID list. Isolated
// nodes are never members; a graph whose every component is a clique has
// an empty CDS (any member can reach all others directly).
func WuLi(g *network.Graph) []int {
	n := g.Len()
	marked := make([]bool, n)

	// Marking process: u is marked iff it has two neighbors that are not
	// adjacent to each other.
	for u := 0; u < n; u++ {
		nbrs := g.Neighbors(u)
		for i := 0; i < len(nbrs) && !marked[u]; i++ {
			for j := i + 1; j < len(nbrs); j++ {
				if !g.IsNeighbor(nbrs[i], nbrs[j]) {
					marked[u] = true
					break
				}
			}
		}
	}

	// Priority: higher degree first, then higher ID (any total order
	// works; degree-based pruning keeps the backbone smaller).
	higher := func(a, b int) bool {
		if g.Degree(a) != g.Degree(b) {
			return g.Degree(a) > g.Degree(b)
		}
		return a > b
	}

	// Rule 1: unmark v if some marked neighbor u with higher priority
	// satisfies N[v] ⊆ N[u].
	for v := 0; v < n; v++ {
		if !marked[v] {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if marked[u] && higher(u, v) && closedSubset(g, v, u) {
				marked[v] = false
				break
			}
		}
	}

	// Rule 2: unmark v if two connected marked neighbors u, w, each with
	// higher priority, jointly cover N(v).
	for v := 0; v < n; v++ {
		if !marked[v] {
			continue
		}
		nbrs := g.Neighbors(v)
	rule2:
		for i := 0; i < len(nbrs); i++ {
			u := nbrs[i]
			if !marked[u] || !higher(u, v) {
				continue
			}
			for j := 0; j < len(nbrs); j++ {
				w := nbrs[j]
				if w == u || !marked[w] || !higher(w, v) || !g.IsNeighbor(u, w) {
					continue
				}
				if openCoveredByTwo(g, v, u, w) {
					marked[v] = false
					break rule2
				}
			}
		}
	}

	var out []int
	for v := 0; v < n; v++ {
		if marked[v] {
			out = append(out, v)
		}
	}
	return out
}

// closedSubset reports N[v] ⊆ N[u].
func closedSubset(g *network.Graph, v, u int) bool {
	for _, x := range g.Neighbors(v) {
		if x != u && !g.IsNeighbor(u, x) {
			return false
		}
	}
	return true
}

// openCoveredByTwo reports N(v) ⊆ N(u) ∪ N(w) ∪ {u, w}.
func openCoveredByTwo(g *network.Graph, v, u, w int) bool {
	for _, x := range g.Neighbors(v) {
		if x == u || x == w {
			continue
		}
		if !g.IsNeighbor(u, x) && !g.IsNeighbor(w, x) {
			return false
		}
	}
	return true
}

// MISConnect returns a connected dominating set built from a maximal
// independent set: BFS-layer the component of root, greedily add
// independent dominators layer by layer, then connect adjacent MIS
// members through shared neighbors. Only root's component is covered.
func MISConnect(g *network.Graph, root int) ([]int, error) {
	if root < 0 || root >= g.Len() {
		return nil, fmt.Errorf("cds: root %d out of range [0, %d)", root, g.Len())
	}
	dist := g.HopDistances(root)
	// Order candidates by (BFS layer, ID): classic layered MIS.
	var order []int
	for v, d := range dist {
		if d >= 0 {
			order = append(order, v)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		if dist[order[a]] != dist[order[b]] {
			return dist[order[a]] < dist[order[b]]
		}
		return order[a] < order[b]
	})
	inMIS := make(map[int]bool)
	blocked := make(map[int]bool)
	for _, v := range order {
		if blocked[v] {
			continue
		}
		inMIS[v] = true
		for _, w := range g.Neighbors(v) {
			blocked[w] = true
		}
		blocked[v] = true
	}

	// Connect: MIS members in adjacent layers are within 3 hops; for each
	// MIS member (except those in layer 0) add a neighbor that is
	// adjacent to some already-connected member closer to the root.
	cds := make(map[int]bool)
	for v := range inMIS {
		cds[v] = true
	}
	members := make([]int, 0, len(inMIS))
	for v := range inMIS {
		members = append(members, v)
	}
	sort.Slice(members, func(a, b int) bool {
		if dist[members[a]] != dist[members[b]] {
			return dist[members[a]] < dist[members[b]]
		}
		return members[a] < members[b]
	})
	for _, v := range members {
		if dist[v] == 0 {
			continue
		}
		// Find a connector: a neighbor w of v with dist[w] == dist[v]−1.
		// w is dominated by some MIS member at distance ≤ dist[w], and
		// adding the chain of such connectors links the whole set; for a
		// 2-layer gap add the second connector too.
		cur := v
		for dist[cur] > 0 {
			picked := -1
			for _, w := range g.Neighbors(cur) {
				if dist[w] == dist[cur]-1 && (picked < 0 || w < picked) {
					picked = w
				}
			}
			if picked < 0 {
				return nil, fmt.Errorf("cds: BFS layering inconsistent at node %d", cur)
			}
			if cds[picked] || inMIS[picked] {
				cds[picked] = true
				break
			}
			cds[picked] = true
			cur = picked
		}
	}

	out := make([]int, 0, len(cds))
	for v := range cds {
		out = append(out, v)
	}
	sort.Ints(out)
	return out, nil
}
