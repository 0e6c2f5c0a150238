package mldcsd

// The canonical converged-state document. Both the live server
// (GET /v1/state) and the offline sequential oracle (internal/e2e)
// render their answer through these exact types and CanonicalNodes, so
// "the service converged correctly" is a byte comparison of two JSON
// marshals — no tolerance, no field-by-field diffing to get subtly wrong.

// NodeState is one node's converged answer, keyed by external ID.
type NodeState struct {
	ID int64   `json:"id"`
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
	R  float64 `json:"r"`
	// Neighbors are the bidirectional 1-hop neighbors, as external IDs,
	// sorted ascending. Always non-nil so it marshals as [].
	Neighbors []int64 `json:"neighbors"`
	// Forwarding is the MLDCS forwarding set (the paper's relay set), as
	// external IDs, sorted ascending. Always non-nil.
	Forwarding []int64 `json:"forwarding"`
	// HubInCover reports whether the node's own disk is in its minimum
	// local disk cover set.
	HubInCover bool `json:"hub_in_cover"`
}

// StateDoc is the GET /v1/state response.
type StateDoc struct {
	Epoch      uint64      `json:"epoch"`
	AppliedSeq uint64      `json:"applied_seq"`
	Nodes      []NodeState `json:"nodes"`
}

// CanonicalNodes maps dense per-node results to the canonical NodeState
// list: ids is the dense→external mapping (sorted ascending), and
// neighbors/forwarding/hubIn are dense-indexed, with neighbor lists in
// dense indices. Dense order is sorted external-ID order, so ascending
// dense indices map to ascending external IDs and every output list is
// sorted by construction.
func CanonicalNodes(ids []int64, xs, ys, rs []float64, neighbors, forwarding [][]int, hubIn []bool) []NodeState {
	out := make([]NodeState, len(ids))
	for i, id := range ids {
		out[i] = NodeState{
			ID:         id,
			X:          xs[i],
			Y:          ys[i],
			R:          rs[i],
			Neighbors:  mapIDs(neighbors[i], ids),
			Forwarding: mapIDs(forwarding[i], ids),
			HubInCover: hubIn[i],
		}
	}
	return out
}

func mapIDs(dense []int, ids []int64) []int64 {
	out := make([]int64, 0, len(dense))
	for _, d := range dense {
		out = append(out, ids[d])
	}
	return out
}

// stateDoc renders a snapshot as the canonical document.
func stateDoc(sn *Snapshot) StateDoc {
	doc := StateDoc{Epoch: sn.Epoch, AppliedSeq: sn.AppliedSeq, Nodes: []NodeState{}}
	if sn.Res == nil || len(sn.IDs) == 0 {
		return doc
	}
	n := len(sn.IDs)
	xs := make([]float64, n)
	ys := make([]float64, n)
	rs := make([]float64, n)
	for i := range xs {
		nd := sn.Res.Node(i)
		xs[i], ys[i], rs[i] = nd.Pos.X, nd.Pos.Y, nd.Radius
	}
	res := sn.Res.Result()
	doc.Nodes = CanonicalNodes(sn.IDs, xs, ys, rs, res.Neighbors, res.Forwarding, res.HubInCover)
	return doc
}
