package mldcsd

import (
	"sort"

	"repro/internal/geom"
	"repro/internal/network"
)

// world is the authoritative node membership, keyed by the client-visible
// external node ID. The engine wants dense 0..n−1 IDs; world owns the
// mapping: dense index i ↔ the i-th smallest live external ID, kept as
// dense arrays plus one external-ID → dense-index map, so a delta on a
// present node costs O(1). Only the applier goroutine touches a world, so
// it needs no locking.
//
// Apply semantics are total — a batch that decoded cleanly always
// applies, so an accepted (202) ingest can never fail later:
//
//   - join   upserts: absent nodes appear, present nodes take the new
//     position and radius (a client re-announcing after a server restart
//     is a join storm; upsert makes that idempotent);
//   - move / radius on an absent node are ignored and counted (the node
//     left under a racing batch — last-writer-wins, not an error);
//   - leave of an absent node is ignored and counted.
//
// The offline oracle (internal/e2e) replays the same rules; any drift
// between this file and the oracle is exactly what the chaos harness
// exists to catch.
type world struct {
	// ids maps dense index → external ID, ascending. Snapshots share it, so
	// it is never written: a membership change builds a fresh slice.
	ids []int64
	// nodes are the dense engine inputs (ID = index), index-aligned with
	// ids. A slot vacated by a leave keeps its place, with ID −1, until the
	// next commit.
	nodes []network.Node
	index map[int64]int
	// Membership edits since the last commit: nodes that joined (they get
	// dense indices at the commit) and the number of vacated slots.
	joins   map[int64]network.Node
	vacated int
	// moved lists, once each, the dense indices of present nodes whose
	// state changed since the last commit; movedBuf is the engine input
	// takeMoved renders from it.
	moved     []int
	movedMark []bool
	movedBuf  []network.Node
}

func newWorld() *world {
	return &world{index: make(map[int64]int), joins: make(map[int64]network.Node)}
}

// apply folds one decoded batch into the world and reports how many
// deltas were ignored.
func (w *world) apply(b Batch) (ignored int) {
	for _, d := range b.Deltas {
		if i, ok := w.index[d.Node]; ok {
			switch d.Op {
			case OpJoin:
				w.set(i, geom.Pt(*d.X, *d.Y), *d.R)
			case OpMove:
				w.set(i, geom.Pt(*d.X, *d.Y), w.nodes[i].Radius)
			case OpRadius:
				w.set(i, w.nodes[i].Pos, *d.R)
			case OpLeave:
				delete(w.index, d.Node)
				w.nodes[i].ID = -1
				w.vacated++
			}
			continue
		}
		j, ok := w.joins[d.Node]
		switch {
		case d.Op == OpJoin:
			w.joins[d.Node] = network.Node{Pos: geom.Pt(*d.X, *d.Y), Radius: *d.R}
		case !ok:
			ignored++
		case d.Op == OpMove:
			j.Pos = geom.Pt(*d.X, *d.Y)
			w.joins[d.Node] = j
		case d.Op == OpRadius:
			j.Radius = *d.R
			w.joins[d.Node] = j
		case d.Op == OpLeave:
			delete(w.joins, d.Node)
		}
	}
	return ignored
}

// set updates the present node at dense index i and records it as moved.
func (w *world) set(i int, pos geom.Point, r float64) {
	w.nodes[i].Pos, w.nodes[i].Radius = pos, r
	if !w.movedMark[i] {
		w.movedMark[i] = true
		w.moved = append(w.moved, i)
	}
}

// commit folds the pending membership edits into the dense arrays and
// reports whether membership changed. On a change ids is a fresh slice and
// the moved set is dropped, because dense indices shift and the caller
// recomputes everything; without one commit is O(1).
func (w *world) commit() (membershipChanged bool) {
	if len(w.joins) == 0 && w.vacated == 0 {
		return false
	}
	for _, i := range w.moved {
		w.movedMark[i] = false
	}
	w.moved = w.moved[:0]

	joined := make([]int64, 0, len(w.joins))
	for id := range w.joins {
		joined = append(joined, id)
	}
	sort.Slice(joined, func(a, b int) bool { return joined[a] < joined[b] })
	n := len(w.ids) - w.vacated + len(joined)
	ids := make([]int64, 0, n)
	nodes := make([]network.Node, 0, n)
	// Merge the surviving slots (already ascending) with the sorted joins.
	k := 0
	for i, id := range w.ids {
		if w.nodes[i].ID < 0 {
			continue // vacated
		}
		for ; k < len(joined) && joined[k] < id; k++ {
			ids = append(ids, joined[k])
			nodes = append(nodes, w.joins[joined[k]])
		}
		ids = append(ids, id)
		nodes = append(nodes, w.nodes[i])
	}
	for ; k < len(joined); k++ {
		ids = append(ids, joined[k])
		nodes = append(nodes, w.joins[joined[k]])
	}
	clear(w.index)
	for i, id := range ids {
		nodes[i].ID = i
		w.index[id] = i
	}
	w.ids, w.nodes = ids, nodes
	clear(w.joins)
	w.vacated = 0
	if cap(w.movedMark) < n {
		w.movedMark = make([]bool, n)
	}
	w.movedMark = w.movedMark[:n]
	return true
}

// takeMoved returns the committed nodes changed since the last commit,
// each once, as engine Move input (valid until the next call), and resets
// the moved set.
func (w *world) takeMoved() []network.Node {
	w.movedBuf = w.movedBuf[:0]
	for _, i := range w.moved {
		w.movedBuf = append(w.movedBuf, w.nodes[i])
		w.movedMark[i] = false
	}
	w.moved = w.moved[:0]
	return w.movedBuf
}
