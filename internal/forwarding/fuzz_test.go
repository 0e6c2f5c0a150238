package forwarding

import (
	"encoding/binary"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
)

// nodesFromBytes decodes a byte string into a small valid node set: each
// 6-byte chunk becomes one node with a position in a 8×8 square and a
// radius in [1, 2].
func nodesFromBytes(data []byte) []network.Node {
	var nodes []network.Node
	for len(data) >= 6 && len(nodes) < 40 {
		chunk := data[:6]
		data = data[6:]
		x := float64(binary.LittleEndian.Uint16(chunk[0:2])) / 65535 * 8
		y := float64(binary.LittleEndian.Uint16(chunk[2:4])) / 65535 * 8
		r := 1 + float64(binary.LittleEndian.Uint16(chunk[4:6]))/65535
		nodes = append(nodes, network.Node{ID: len(nodes), Pos: geom.Pt(x, y), Radius: r})
	}
	if len(nodes) == 0 {
		nodes = []network.Node{{ID: 0, Pos: geom.Pt(0, 0), Radius: 1}}
	}
	return nodes
}

// FuzzSelectorInvariants drives every selector over fuzzed topologies and
// checks the cross-selector invariants: forwarding sets are sorted subsets
// of the neighborhood; greedy, optimal, and repair cover every 2-hop
// neighbor; and |optimal| ≤ |greedy| and |optimal| ≤ |repair|.
func FuzzSelectorInvariants(f *testing.F) {
	f.Add([]byte{})
	seed := make([]byte, 6*20)
	for i := range seed {
		seed[i] = byte(i * 13)
	}
	f.Add(seed)
	f.Add([]byte{0, 0, 0, 0, 255, 255, 255, 255, 255, 255, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		nodes := nodesFromBytes(data)
		g, err := network.Build(nodes, network.Bidirectional)
		if err != nil {
			t.Fatalf("valid-by-construction nodes rejected: %v", err)
		}
		u := 0
		sizes := map[string]int{}
		for _, sel := range []Selector{Flooding{}, Skyline{}, Greedy{}, Optimal{}, SkylineRepair{}} {
			set, err := sel.Select(g, u)
			if err != nil {
				t.Fatalf("%s: %v", sel.Name(), err)
			}
			for i, w := range set {
				if !g.IsNeighbor(u, w) {
					t.Fatalf("%s: %d not a neighbor", sel.Name(), w)
				}
				if i > 0 && set[i-1] >= w {
					t.Fatalf("%s: set not sorted/unique: %v", sel.Name(), set)
				}
			}
			sizes[sel.Name()] = len(set)
			switch sel.(type) {
			case Greedy, Optimal, SkylineRepair:
				if !covers(g, u, set) {
					t.Fatalf("%s: set %v misses %v", sel.Name(), set, Uncovered(g, u, set))
				}
			}
		}
		if sizes["optimal"] > sizes["greedy"] {
			t.Fatalf("optimal %d > greedy %d", sizes["optimal"], sizes["greedy"])
		}
		if sizes["optimal"] > sizes["repair"] {
			t.Fatalf("optimal %d > repair %d", sizes["optimal"], sizes["repair"])
		}
		if sizes["skyline"] > sizes["flooding"] {
			t.Fatalf("skyline %d > flooding %d", sizes["skyline"], sizes["flooding"])
		}
	})
}
