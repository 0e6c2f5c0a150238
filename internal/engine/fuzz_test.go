package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
)

// nodesFromBytes deterministically decodes a byte string into a valid node
// set: each 6-byte chunk becomes one node on an 8×8 region with radius in
// [1, 2]. Repeated chunks produce exactly co-located nodes, so the fuzzer
// reaches the key order among duplicates and the skyline's degenerate
// tie-breaks. It also returns the bytes it did not consume: everything
// past the 48th node, or the last 0–5.
func nodesFromBytes(data []byte) ([]network.Node, []byte) {
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
	return nodes, data
}

// movesFromBytes decodes the tail nodesFromBytes left into mobility passes
// over nodes: each 2-byte pair moves node b0 mod len(nodes) in direction
// (b1 & 15)·2π/16 by (b1>>4 + 1)/32 of its radius (3–50%), and every
// fuzzMovesPerPass moves form one pass. A short tail gives one pass with
// up to two movers, so a small node set can still move two neighbors of
// one hub at once.
func movesFromBytes(nodes []network.Node, tail []byte) [][]Delta {
	const fuzzMovesPerPass = 4
	cur := append([]network.Node(nil), nodes...)
	var passes [][]Delta
	for i := 0; i+1 < len(tail); i += 2 {
		if i%(2*fuzzMovesPerPass) == 0 {
			passes = append(passes, nil)
		}
		u := int(tail[i]) % len(cur)
		dir := float64(tail[i+1]&15) * geom.TwoPi / 16
		step := float64(tail[i+1]>>4+1) / 32 * cur[u].Radius
		cur[u].Pos = geom.Pt(cur[u].Pos.X+step*math.Cos(dir), cur[u].Pos.Y+step*math.Sin(dir))
		last := &passes[len(passes)-1]
		*last = append(*last, Delta{Slot: u, Key: int64(u), Pos: cur[u].Pos, Radius: cur[u].Radius})
	}
	return passes
}

// FuzzEngineVsSequential feeds arbitrary node sets to the engine across
// worker counts and cross-checks every output against the sequential
// per-node pipeline (network.Build + Graph.LocalSet + mldcs.Solve). The
// input's tail (movesFromBytes) then moves nodes through Apply on the same
// engines, so the kinetic repair path is checked against the pipeline on
// the moved node set after every pass. Any divergence — neighborhoods,
// forwarding sets, or hub flags — is a bug in the sharding, the neighbor
// ordering or the repair.
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
	// Seven nodes and a five-byte tail: two nodes move in one pass, and
	// four hubs are repaired with both movers among their neighbors. A
	// repair that rebuilt its disks at the movers' post-pass positions
	// instead of their pre-pass ones fails here (the fuzzer found it).
	f.Add([]byte("00\xef000\xc30000000X0\xd500070000070000X0000000000001.0"))
	f.Fuzz(func(t *testing.T, data []byte) {
		nodes, tail := nodesFromBytes(data)
		passes := movesFromBytes(nodes, tail)
		fwd, hubIn, g := sequentialForwarding(t, nodes)
		type want struct {
			fwd   [][]int
			hubIn []bool
			g     *network.Graph
		}
		wants := make([]want, len(passes))
		cur := append([]network.Node(nil), nodes...)
		for i, ds := range passes {
			for _, d := range ds {
				cur[d.Slot].Pos = d.Pos
			}
			wants[i].fwd, wants[i].hubIn, wants[i].g = sequentialForwarding(t, cur)
		}
		for _, workers := range []int{1, 3} {
			e := New(Config{Workers: workers})
			res, err := e.Compute(nodes)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			assertIdentical(t, fmt.Sprintf("workers=%d", workers), res, fwd, hubIn, g)
			for i, ds := range passes {
				v, err := e.Apply(ds)
				if err != nil {
					t.Fatalf("workers=%d pass %d: %v", workers, i, err)
				}
				w := wants[i]
				assertIdentical(t, fmt.Sprintf("workers=%d pass %d", workers, i), v.Result(), w.fwd, w.hubIn, w.g)
			}
		}
	})
}
