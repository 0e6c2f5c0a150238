// Package network models heterogeneous wireless ad hoc networks as disk
// graphs (§3.1 of the paper): every node has a position and a transmission
// radius, and links are induced by geometry. Both the paper's bidirectional
// link model (u ~ v iff ‖u − v‖ ≤ min(r_u, r_v)) and the physical
// unidirectional reception model (v hears u iff ‖u − v‖ ≤ r_u) are
// supported; the latter is used by the broadcast simulator to model what
// actually propagates over the air.
package network

import (
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/mldcs"
	"repro/internal/spatial"
)

// Node is a wireless node: an identifier, a position, and a transmission
// radius.
type Node struct {
	ID     int
	Pos    geom.Point
	Radius float64
}

// Disk returns the node's coverage disk B(Pos, Radius).
func (n Node) Disk() geom.Disk { return geom.Disk{C: n.Pos, R: n.Radius} }

// LinkModel selects how links are derived from geometry.
type LinkModel int

const (
	// Bidirectional links exist iff each endpoint is within the other's
	// radius: ‖u − v‖ ≤ min(r_u, r_v). This is the paper's model.
	Bidirectional LinkModel = iota
	// Unidirectional links are reception edges: u → v iff ‖u − v‖ ≤ r_u.
	// The resulting graph is directed.
	Unidirectional
)

// String implements fmt.Stringer.
func (m LinkModel) String() string {
	if m == Bidirectional {
		return "bidirectional"
	}
	return "unidirectional"
}

// Graph is a disk graph over a fixed node set.
type Graph struct {
	nodes []Node
	model LinkModel
	out   [][]int // out[u] = sorted neighbors reachable BY u's transmissions
	in    [][]int // in[u] = sorted nodes whose transmissions reach u
	grid  *spatial.Grid
	maxR  float64
}

// Build constructs the disk graph for the nodes under the given link
// model. Node IDs must equal their slice positions; Build verifies this.
// Construction uses a spatial grid, so it is near-linear in the number of
// nodes for bounded densities.
func Build(nodes []Node, model LinkModel) (*Graph, error) {
	maxR := 0.0
	for i, n := range nodes {
		if n.ID != i {
			return nil, fmt.Errorf("network: node at position %d has ID %d; IDs must be dense", i, n.ID)
		}
		if !(n.Radius > 0) {
			return nil, fmt.Errorf("network: node %d has non-positive radius %g", i, n.Radius)
		}
		if n.Radius > maxR {
			maxR = n.Radius
		}
	}
	g := &Graph{
		// Copy: MoveNode mutates positions, and the caller's slice must
		// stay untouched.
		nodes: append([]Node(nil), nodes...),
		model: model,
		out:   make([][]int, len(nodes)),
		in:    make([][]int, len(nodes)),
	}
	if len(nodes) == 0 {
		return g, nil
	}
	pts := make([]geom.Point, len(nodes))
	for i, n := range nodes {
		pts[i] = n.Pos
	}
	grid := spatial.NewGrid(pts, maxR)
	g.grid = grid
	g.maxR = maxR
	for u := range nodes {
		grid.VisitWithin(nodes[u].Pos, nodes[u].Radius, func(v int) {
			if v == u {
				return
			}
			if model == Bidirectional && !geom.Reaches(nodes[v].Pos, nodes[u].Pos, nodes[v].Radius) {
				return // v cannot reach back
			}
			g.out[u] = append(g.out[u], v)
			g.in[v] = append(g.in[v], u)
		})
	}
	for u := range nodes {
		sort.Ints(g.out[u])
		sort.Ints(g.in[u])
	}
	return g, nil
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// Model returns the link model the graph was built with.
func (g *Graph) Model() LinkModel { return g.model }

// Node returns the node with the given ID.
func (g *Graph) Node(id int) Node { return g.nodes[id] }

// Nodes returns the underlying node slice. Callers must not modify it.
func (g *Graph) Nodes() []Node { return g.nodes }

// Neighbors returns the out-neighbors of u: the nodes u's transmissions
// reach. Under the bidirectional model this equals the in-neighbor set.
// Callers must not modify the returned slice.
func (g *Graph) Neighbors(u int) []int { return g.out[u] }

// Degree returns the out-degree of u.
func (g *Graph) Degree(u int) int { return len(g.out[u]) }

// IsNeighbor reports whether v is an out-neighbor of u.
func (g *Graph) IsNeighbor(u, v int) bool {
	adj := g.out[u]
	i := sort.SearchInts(adj, v)
	return i < len(adj) && adj[i] == v
}

// TwoHop returns the nodes at graph distance exactly 2 from u (reachable
// via out-edges), sorted.
func (g *Graph) TwoHop(u int) []int {
	mark := make(map[int]bool, 4*len(g.out[u]))
	mark[u] = true
	for _, v := range g.out[u] {
		mark[v] = true
	}
	var out []int
	for _, v := range g.out[u] {
		for _, w := range g.out[v] {
			if !mark[w] {
				mark[w] = true
				out = append(out, w)
			}
		}
	}
	sort.Ints(out)
	return out
}

// HopDistances returns BFS hop counts over out-edges from src; unreachable
// nodes get −1.
func (g *Graph) HopDistances(src int) []int {
	dist := make([]int, len(g.nodes))
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= len(g.nodes) {
		return dist
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.out[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// LocalSet returns the MLDCS problem input for node u: the hub's disk and
// the disks of its bidirectional 1-hop neighbors, plus the mapping from
// neighbor-disk positions to node IDs. It requires the bidirectional
// model, under which every neighbor's disk contains the hub by definition.
func (g *Graph) LocalSet(u int) (ls mldcs.LocalSet, neighborIDs []int, err error) {
	if g.model != Bidirectional {
		return mldcs.LocalSet{}, nil, fmt.Errorf("network: LocalSet requires the bidirectional model")
	}
	ls.Hub = g.nodes[u].Disk()
	neighborIDs = g.out[u]
	ls.Neighbors = make([]geom.Disk, len(neighborIDs))
	for i, v := range neighborIDs {
		ls.Neighbors[i] = g.nodes[v].Disk()
	}
	return ls, neighborIDs, nil
}
