// Package forwarding implements every forwarding-set selection algorithm
// compared in the paper's evaluation (§5.1):
//
//   - Flooding: all 1-hop neighbors relay (the baseline that causes the
//     broadcast storm problem).
//   - Skyline: the paper's contribution — the minimum local disk cover set
//     computed from 1-hop information only.
//   - Greedy: Chvátal-style greedy set cover over the 2-hop neighborhood,
//     the multipoint-relay heuristic of Qayyum et al.
//   - Optimal: exact minimum forwarding set by branch-and-bound (the
//     paper's brute-force reference).
//   - Călinescu: the selecting-forwarding-set algorithm of Călinescu et
//     al. for homogeneous networks (quadrant/skyline/interval structure).
//   - SkylineRepair: the paper's §5.2 future-work extension — the skyline
//     set patched with greedily chosen extras until 2-hop coverage is
//     guaranteed under bidirectional links.
//
// All selectors return forwarding sets as sorted node IDs that are 1-hop
// neighbors of the queried node.
package forwarding

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/network"
)

// Selector computes the forwarding set of a node.
type Selector interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Select returns the forwarding set of node u in g as sorted node IDs.
	Select(g *network.Graph, u int) ([]int, error)
}

// ErrNeedsBidirectional is returned by selectors that require the paper's
// bidirectional link model.
var ErrNeedsBidirectional = errors.New("forwarding: selector requires the bidirectional link model")

// ErrHeterogeneous is returned by the Călinescu selector when radii are not
// all equal; the published algorithm is defined only for homogeneous
// networks (§5.1.2).
var ErrHeterogeneous = errors.New("forwarding: selector requires a homogeneous network")

// ByName returns the selector registered under the given name. Valid names
// are "flooding", "skyline", "greedy", "optimal", "calinescu",
// "calinescu-quadrant", and "repair".
func ByName(name string) (Selector, error) {
	switch name {
	case "flooding":
		return Flooding{}, nil
	case "skyline":
		return Skyline{}, nil
	case "greedy":
		return Greedy{}, nil
	case "optimal":
		return Optimal{}, nil
	case "calinescu":
		return Calinescu{}, nil
	case "calinescu-quadrant":
		return CalinescuQuadrant{}, nil
	case "repair":
		return SkylineRepair{}, nil
	default:
		return nil, fmt.Errorf("forwarding: unknown selector %q", name)
	}
}

// coverage is the 2-hop cover structure of a node: the 2-hop neighbor IDs
// (the universe) and, for every 1-hop neighbor, the bitset of 2-hop
// neighbors adjacent to it under the graph's link model.
type coverage struct {
	neighbors []int         // 1-hop neighbor IDs, sorted
	twoHop    []int         // 2-hop neighbor IDs, sorted (universe)
	masks     []*bitset.Set // masks[i] = 2-hop nodes covered by neighbors[i]
	bitOf     map[int]int   // node ID → universe bit
}

func buildCoverage(g *network.Graph, u int) coverage {
	c := coverage{
		neighbors: g.Neighbors(u),
		twoHop:    g.TwoHop(u),
	}
	c.bitOf = make(map[int]int, len(c.twoHop))
	for b, id := range c.twoHop {
		c.bitOf[id] = b
	}
	c.masks = make([]*bitset.Set, len(c.neighbors))
	for i, w := range c.neighbors {
		m := bitset.New(len(c.twoHop))
		for _, t := range g.Neighbors(w) {
			if b, ok := c.bitOf[t]; ok {
				m.Add(b)
			}
		}
		c.masks[i] = m
	}
	return c
}

// Uncovered returns the 2-hop neighbors of u not adjacent to any member of
// the forwarding set, sorted.
func Uncovered(g *network.Graph, u int, set []int) []int {
	var out []int
	for _, t := range g.TwoHop(u) {
		covered := false
		for _, w := range set {
			if g.IsNeighbor(w, t) {
				covered = true
				break
			}
		}
		if !covered {
			out = append(out, t)
		}
	}
	return out
}

// CoverageRatio returns the fraction of 2-hop neighbors of u covered by
// the forwarding set; 1 when u has no 2-hop neighbors.
func CoverageRatio(g *network.Graph, u int, set []int) float64 {
	two := g.TwoHop(u)
	if len(two) == 0 {
		return 1
	}
	return 1 - float64(len(Uncovered(g, u, set)))/float64(len(two))
}

// Flooding is the blind-flooding baseline: every 1-hop neighbor relays.
type Flooding struct{}

// Name implements Selector.
func (Flooding) Name() string { return "flooding" }

// Select implements Selector.
func (Flooding) Select(g *network.Graph, u int) ([]int, error) {
	return append([]int(nil), g.Neighbors(u)...), nil
}

// sortedCopy returns a sorted copy of ids.
func sortedCopy(ids []int) []int {
	out := append([]int(nil), ids...)
	sort.Ints(out)
	return out
}
