package engine

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/geom"
	"repro/internal/mldcs"
	"repro/internal/network"
)

// nodesFromBytes deterministically decodes a byte string into a valid node
// set: each 6-byte chunk becomes one node on an 8×8 region with radius in
// [1, 2]. Repeated chunks produce exactly co-located nodes, so the fuzzer
// reaches the key order among duplicates and the skyline's degenerate
// tie-breaks.
func nodesFromBytes(data []byte) []network.Node {
	var nodes []network.Node
	for len(data) >= 6 && len(nodes) < 48 {
		chunk := data[:6]
		data = data[6:]
		u := binary.LittleEndian.Uint16(chunk[0:2])
		v := binary.LittleEndian.Uint16(chunk[2:4])
		w := binary.LittleEndian.Uint16(chunk[4:6])
		nodes = append(nodes, network.Node{
			ID:     len(nodes),
			Pos:    geom.Pt(float64(u)/65535*8, float64(v)/65535*8),
			Radius: 1 + float64(w)/65535,
		})
	}
	if len(nodes) == 0 {
		nodes = []network.Node{{ID: 0, Pos: geom.Pt(0, 0), Radius: 1}}
	}
	return nodes
}

// FuzzEngineVsSequential feeds arbitrary node sets to the engine across
// worker counts and cross-checks every output against the sequential
// per-node pipeline (network.Build + Graph.LocalSet + mldcs.Solve). Any
// divergence — neighborhoods, forwarding sets, or hub flags — is a bug in
// the sharding or the neighbor ordering.
func FuzzEngineVsSequential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6})
	seed := make([]byte, 6*12)
	for i := range seed {
		seed[i] = byte(i * 53)
	}
	f.Add(seed)
	// Two co-located triples: identical neighborhoods and exact duplicate
	// disks.
	cluster := append(
		bytes.Repeat([]byte{0, 32, 0, 32, 0, 128}, 3),
		bytes.Repeat([]byte{0, 192, 0, 192, 0, 128}, 3)...)
	f.Add(cluster)
	f.Fuzz(func(t *testing.T, data []byte) {
		nodes := nodesFromBytes(data)
		g, err := network.Build(nodes, network.Bidirectional)
		if err != nil {
			t.Fatalf("valid-by-construction nodes rejected: %v", err)
		}
		fwd := make([][]int, g.Len())
		hubIn := make([]bool, g.Len())
		for u := 0; u < g.Len(); u++ {
			ls, ids, err := g.LocalSet(u)
			if err != nil {
				t.Fatal(err)
			}
			r, err := mldcs.Solve(ls)
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range r.NeighborCover() {
				fwd[u] = append(fwd[u], ids[i])
			}
			hubIn[u] = r.ContainsHub()
		}
		for _, workers := range []int{1, 3} {
			res, err := New(Config{Workers: workers}).Compute(nodes)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			for u := range nodes {
				if !equalSets(res.Neighbors[u], g.Neighbors(u)) {
					t.Fatalf("workers=%d: node %d neighbors = %v, want %v",
						workers, u, res.Neighbors[u], g.Neighbors(u))
				}
				if !equalSets(res.Forwarding[u], fwd[u]) {
					t.Fatalf("workers=%d: node %d forwarding = %v, want %v",
						workers, u, res.Forwarding[u], fwd[u])
				}
				if res.HubInCover[u] != hubIn[u] {
					t.Fatalf("workers=%d: node %d hubInCover = %v, want %v",
						workers, u, res.HubInCover[u], hubIn[u])
				}
			}
		}
	})
}
