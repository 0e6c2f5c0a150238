package mldcsd

import "slices"

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

// CanonicalNodes renders per-node results as the canonical NodeState list.
// Node i has external ID ids[i] (ascending); neighbors[i] and
// forwarding[i] name other nodes by indices that ext maps to external IDs,
// and the mapped lists are sorted, so the document does not depend on how
// a renderer numbers its nodes.
func CanonicalNodes(ids []int64, xs, ys, rs []float64, neighbors, forwarding [][]int, hubIn []bool, ext func(int) int64) []NodeState {
	out := make([]NodeState, len(ids))
	for i, id := range ids {
		out[i] = NodeState{
			ID:         id,
			X:          xs[i],
			Y:          ys[i],
			R:          rs[i],
			Neighbors:  mapIDs(neighbors[i], ext),
			Forwarding: mapIDs(forwarding[i], ext),
			HubInCover: hubIn[i],
		}
	}
	return out
}

// mapIDs maps a node list to sorted external IDs.
func mapIDs(list []int, ext func(int) int64) []int64 {
	out := make([]int64, 0, len(list))
	for _, u := range list {
		out = append(out, ext(u))
	}
	slices.Sort(out)
	return out
}

// stateDoc renders a snapshot as the canonical document, resolving each
// live ID through the snapshot's slot index.
func stateDoc(sn *Snapshot) StateDoc {
	doc := StateDoc{Epoch: sn.Epoch, AppliedSeq: sn.AppliedSeq, Nodes: []NodeState{}}
	if sn.Res == nil || len(sn.IDs) == 0 {
		return doc
	}
	n := len(sn.IDs)
	xs, ys, rs := make([]float64, n), make([]float64, n), make([]float64, n)
	nbrs, fwd, hubIn := make([][]int, n), make([][]int, n), make([]bool, n)
	for i, s := range sn.Slots {
		nd := sn.Res.Node(s)
		xs[i], ys[i], rs[i] = nd.Pos.X, nd.Pos.Y, nd.Radius
		nbrs[i], fwd[i], hubIn[i] = sn.Res.Neighbors(s), sn.Res.Forwarding(s), sn.Res.HubInCover(s)
	}
	doc.Nodes = CanonicalNodes(sn.IDs, xs, ys, rs, nbrs, fwd, hubIn, sn.Res.Key)
	return doc
}
