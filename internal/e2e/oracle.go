package e2e

import (
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/mldcs"
	"repro/internal/mldcsd"
	"repro/internal/network"
)

// OracleNodes computes the converged answer for a model with the offline
// sequential pipeline — network.Build, Graph.LocalSet, mldcs.Solve per
// node — the paper's per-hub algorithm, with none of the service's
// machinery (no engine, no cache, no incremental path, no snapshots).
// The result is rendered through the same mldcsd.CanonicalNodes the
// server's /v1/state uses, so agreement is byte equality of marshals.
func OracleNodes(m *Model) ([]mldcsd.NodeState, error) {
	ids := make([]int64, 0, len(m.Nodes))
	for id := range m.Nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	n := len(ids)
	dense := make([]network.Node, n)
	xs := make([]float64, n)
	ys := make([]float64, n)
	rs := make([]float64, n)
	for i, id := range ids {
		st := m.Nodes[id]
		dense[i] = network.Node{ID: i, Pos: geom.Pt(st.X, st.Y), Radius: st.R}
		xs[i], ys[i], rs[i] = st.X, st.Y, st.R
	}
	if n == 0 {
		return []mldcsd.NodeState{}, nil
	}
	g, err := network.Build(dense, network.Bidirectional)
	if err != nil {
		return nil, fmt.Errorf("oracle build: %w", err)
	}
	neighbors := make([][]int, n)
	forwarding := make([][]int, n)
	hubIn := make([]bool, n)
	for u := 0; u < n; u++ {
		ls, nbrIDs, err := g.LocalSet(u)
		if err != nil {
			return nil, fmt.Errorf("oracle local set %d: %w", u, err)
		}
		res, err := mldcs.Solve(ls)
		if err != nil {
			return nil, fmt.Errorf("oracle solve %d: %w", u, err)
		}
		neighbors[u] = nbrIDs
		fwd := make([]int, 0, len(res.Cover))
		for _, idx := range res.NeighborCover() {
			fwd = append(fwd, nbrIDs[idx])
		}
		sort.Ints(fwd)
		forwarding[u] = fwd
		hubIn[u] = res.ContainsHub()
	}
	return mldcsd.CanonicalNodes(ids, xs, ys, rs, neighbors, forwarding, hubIn, func(u int) int64 { return ids[u] }), nil
}
