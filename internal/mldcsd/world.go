package mldcsd

import (
	"slices"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/spatial"
)

// world is the authoritative node membership, keyed by the client-visible
// external node ID. The engine works on stable slots; world owns the
// mapping: one engine.Delta per slot (the slot's node, keyed by its
// external ID, or a leave for a free slot), one external-ID → slot map, a
// free list, and the sorted live-ID index snapshots publish. A group's
// joiners take their slots in Hilbert-curve order of position
// (spatial.HilbertOrder), so nodes that are near in space get nearby
// slots, and the engine's pages, grid entries and kinetic state for one
// neighborhood share cache lines. A delta on a present node costs O(1),
// and a membership change costs O(changed log changed) plus one linear
// merge of the index. Only the applier goroutine touches a world, so it
// needs no locking.
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
	// ids lists the live external IDs, ascending, and slots[i] is the slot
	// of ids[i]. Snapshots share both, so they are never written: a
	// membership change merges into fresh slices.
	ids   []int64
	slots []int
	// state[s] is slot s's engine input; index maps each live external ID
	// to its slot; free holds the slots of nodes that left, reused last
	// freed first.
	state []engine.Delta
	index map[int64]int
	free  []int
	// Membership edits since the last commit: absent nodes that joined
	// (they take slots at the commit) and the IDs that left the index.
	joins map[int64]engine.Delta
	left  []int64
	// deltas records every slot state change since the last commit, in
	// order; Apply keeps the last entry of a repeated slot.
	deltas []engine.Delta
}

func newWorld() *world {
	return &world{index: make(map[int64]int), joins: make(map[int64]engine.Delta)}
}

// apply folds one decoded batch into the world and reports how many
// deltas were ignored.
func (w *world) apply(b Batch) (ignored int) {
	for _, d := range b.Deltas {
		if s, ok := w.index[d.Node]; ok {
			st := &w.state[s]
			switch d.Op {
			case OpJoin:
				st.Pos, st.Radius = geom.Pt(*d.X, *d.Y), *d.R
			case OpMove:
				st.Pos = geom.Pt(*d.X, *d.Y)
			case OpRadius:
				st.Radius = *d.R
			case OpLeave:
				delete(w.index, d.Node)
				*st = engine.Delta{Slot: s, Leave: true}
				w.free = append(w.free, s)
				w.left = append(w.left, d.Node)
			}
			w.deltas = append(w.deltas, *st)
			continue
		}
		j, ok := w.joins[d.Node]
		switch {
		case d.Op == OpJoin:
			w.joins[d.Node] = engine.Delta{Key: d.Node, Pos: geom.Pt(*d.X, *d.Y), Radius: *d.R}
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

// commit ends a group: it gives the pending joins slots, merges the
// group's joins and leaves into the sorted live-ID index, and hands the
// caller the slot changes recorded since the last commit as engine Apply
// input. The joiners take slots in Hilbert-curve order of position over
// the group's joiners, ties broken by ascending external ID: freed slots
// first, last freed first, then new ones past the range. The order
// depends only on the group's final joins, not on batch or map order. The
// world keeps no reference to the returned deltas, so a set-up-sized list
// is not retained. Without a membership edit the index slices stay
// shared.
func (w *world) commit() []engine.Delta {
	ds := w.deltas
	w.deltas = nil
	if len(w.joins) == 0 && len(w.left) == 0 {
		return ds
	}
	joined := make([]int64, 0, len(w.joins))
	for id := range w.joins {
		joined = append(joined, id)
	}
	slices.Sort(joined)
	states, pts := make([]engine.Delta, len(joined)), make([]geom.Point, len(joined))
	for i, id := range joined {
		states[i] = w.joins[id]
		pts[i] = states[i].Pos
	}
	joinedSlots := make([]int, len(joined))
	w.state = slices.Grow(w.state, max(0, len(joined)-len(w.free)))
	ds = slices.Grow(ds, len(joined))
	for _, i := range spatial.HilbertOrder(pts) {
		s := len(w.state)
		if k := len(w.free); k > 0 {
			s, w.free = w.free[k-1], w.free[:k-1]
		} else {
			w.state = append(w.state, engine.Delta{})
		}
		st := states[i]
		st.Slot = s
		w.state[s] = st
		w.index[st.Key] = s
		joinedSlots[i] = s
		ds = append(ds, st)
	}
	slices.Sort(w.left)

	// One linear merge: the old index minus the IDs that left, plus the
	// joined IDs. An ID that left and rejoined is in both lists and takes
	// its new slot.
	n := len(w.ids) - len(w.left) + len(joined)
	ids, slots := make([]int64, 0, n), make([]int, 0, n)
	l, j := 0, 0
	for i, id := range w.ids {
		for ; j < len(joined) && joined[j] < id; j++ {
			ids, slots = append(ids, joined[j]), append(slots, joinedSlots[j])
		}
		if l < len(w.left) && w.left[l] == id {
			l++
			continue
		}
		ids, slots = append(ids, id), append(slots, w.slots[i])
	}
	ids, slots = append(ids, joined[j:]...), append(slots, joinedSlots[j:]...)
	w.ids, w.slots = ids, slots
	// A fresh map, not clear: a cleared map keeps its buckets, and the
	// set-up group's would hold megabytes for the life of the process.
	w.joins = make(map[int64]engine.Delta)
	w.left = w.left[:0]
	return ds
}
