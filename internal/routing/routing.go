// Package routing implements on-demand route discovery over the broadcast
// layer — the paper's opening motivation for efficient broadcasting
// ("[broadcasting] is widely and frequently used to ... find routing
// paths"). Discovery floods a route request (RREQ) from the source using a
// forwarding-set relaying policy; every node remembers the neighbor it
// first heard the request from, and when the request reaches the
// destination, the route reply walks that reverse-path tree back. The
// forwarding policy therefore trades discovery cost (RREQ transmissions)
// against route availability and stretch.
package routing

import (
	"fmt"

	"repro/internal/broadcast"
	"repro/internal/forwarding"
	"repro/internal/network"
)

// Route is the outcome of one discovery.
type Route struct {
	// Found reports whether the request reached the destination.
	Found bool
	// Path is the node sequence source..dest (nil when !Found).
	Path []int
	// Cost is the number of RREQ transmissions spent.
	Cost int
	// Optimal is the hop distance from source to dest in the full graph
	// (−1 if disconnected); Stretch compares Path against it.
	Optimal int
}

// Hops returns the path length in hops (−1 when no route was found).
func (r Route) Hops() int {
	if !r.Found {
		return -1
	}
	return len(r.Path) - 1
}

// Discover runs one RREQ flood from source under the given relaying
// policy (nil = blind flooding) and extracts the route to dest from the
// reverse-path tree.
func Discover(g *network.Graph, source, dest int, policy forwarding.Selector) (Route, error) {
	if source < 0 || source >= g.Len() || dest < 0 || dest >= g.Len() {
		return Route{}, fmt.Errorf("routing: endpoints %d→%d out of range [0, %d)", source, dest, g.Len())
	}
	if source == dest {
		return Route{Found: true, Path: []int{source}, Optimal: 0}, nil
	}
	res, err := broadcast.Run(g, source, policy)
	if err != nil {
		return Route{}, err
	}
	route := Route{Cost: res.Transmissions, Optimal: g.HopDistances(source)[dest]}
	if !res.Received[dest] {
		return route, nil
	}
	// Walk the reverse-path tree dest → source.
	var rev []int
	for v := dest; v != -1; v = res.Parent[v] {
		rev = append(rev, v)
		if len(rev) > g.Len() {
			return Route{}, fmt.Errorf("routing: reverse-path cycle at node %d", v)
		}
	}
	if rev[len(rev)-1] != source {
		return Route{}, fmt.Errorf("routing: reverse path ends at %d, not the source", rev[len(rev)-1])
	}
	route.Found = true
	route.Path = make([]int, len(rev))
	for i, v := range rev {
		route.Path[len(rev)-1-i] = v
	}
	return route, nil
}

// Validate checks that a found route is a real path in the graph: it
// starts and ends at the right nodes and every consecutive pair is
// adjacent.
//
// Test support: the routing tests and the root package's tests (through
// the mldcs.Route alias) check discovered routes with it.
func (r Route) Validate(g *network.Graph, source, dest int) error {
	if !r.Found {
		return nil
	}
	if len(r.Path) == 0 || r.Path[0] != source || r.Path[len(r.Path)-1] != dest {
		return fmt.Errorf("routing: path %v does not join %d and %d", r.Path, source, dest)
	}
	for i := 0; i+1 < len(r.Path); i++ {
		if !g.IsNeighbor(r.Path[i], r.Path[i+1]) {
			return fmt.Errorf("routing: %d and %d are not adjacent", r.Path[i], r.Path[i+1])
		}
	}
	return nil
}
