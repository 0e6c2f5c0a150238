package e2e

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mldcsd"
)

// SeedConfig identifies one chaos run completely: the seed plus the
// stream-shape knobs. Replaying the same config replays the same action
// stream bit for bit.
type SeedConfig struct {
	Seed    int64  `json:"seed"`
	Nodes   int    `json:"nodes"`   // initial network size
	Actions int    `json:"actions"` // driver actions after the initial join storm
	Profile string `json:"profile,omitempty"`
	Note    string `json:"note,omitempty"`
	Banked  string `json:"banked,omitempty"` // date the seed was banked (regression file only)
}

// ProfileMobility is the pure-mobility-heavy stream shape: batches are
// almost all small moves of existing nodes, with joins/leaves rare. It
// keeps the server's engine on its kinetic repair path (most dirty nodes
// did not themselves move, one neighbor drifted a little), so the
// byte-for-byte oracle comparison exercises repaired skylines, not
// recomputed ones. The zero value of Profile is the original mixed
// churn.
const ProfileMobility = "mobility"

// ProfileChurn is the membership-heavy stream shape: joins and leaves
// outnumber moves, fresh IDs join and leave within one batch, and some
// joins land on a departed node's exact position and radius (often the
// node that left earlier in the same batch) or on a live node's exact
// disk. It drives the server's engine through slot reuse — a leave and a
// join in one group move one slot, and a joiner on the leaver's disk
// changes only the slot's key — and through the exact-duplicate
// tie-break, where the lower external ID must represent.
const ProfileChurn = "churn"

func (m *Model) apply(b mldcsd.Batch) {
	for _, d := range b.Deltas {
		switch d.Op {
		case mldcsd.OpJoin:
			m.Nodes[d.Node] = ModelNode{X: *d.X, Y: *d.Y, R: *d.R}
		case mldcsd.OpMove:
			if st, ok := m.Nodes[d.Node]; ok {
				st.X, st.Y = *d.X, *d.Y
				m.Nodes[d.Node] = st
			}
		case mldcsd.OpRadius:
			if st, ok := m.Nodes[d.Node]; ok {
				st.R = *d.R
				m.Nodes[d.Node] = st
			}
		case mldcsd.OpLeave:
			delete(m.Nodes, d.Node)
		}
	}
}

// Action kinds emitted by the generator.
const (
	actIngest     = "ingest"     // valid delta batch
	actMalformed  = "malformed"  // wire-invalid POST body, must 400
	actDisconnect = "disconnect" // truncated body + close, must not apply
	actRestart    = "restart"    // kill the server, boot a fresh one, full-sync
)

type action struct {
	kind  string
	batch mldcsd.Batch // actIngest
	raw   string       // actMalformed / actDisconnect payload
}

// generator produces the deterministic action stream for one seed and
// tracks the intended model as it goes.
type generator struct {
	rng      *rand.Rand
	model    *Model
	side     float64     // deployment square side
	restarts int         // restarts remaining
	profile  string      // stream shape (ProfileMobility, ProfileChurn or "")
	departed []ModelNode // disks of nodes that left (ProfileChurn)
}

func newGenerator(cfg SeedConfig) *generator {
	g := &generator{
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		model:    &Model{Nodes: make(map[int64]ModelNode)},
		restarts: 2,
		profile:  cfg.Profile,
	}
	// Size the square for a mean degree around 8 with radii ~1: the
	// regime where forwarding sets are non-trivial but networks stay
	// connected enough to be interesting.
	n := cfg.Nodes
	if n < 4 {
		n = 4
	}
	g.side = math.Sqrt(math.Pi * float64(n) / 8)
	return g
}

// initialBatch is the join storm that seeds the network.
func (g *generator) initialBatch(n int) mldcsd.Batch {
	var b mldcsd.Batch
	for i := 0; i < n; i++ {
		b.Deltas = append(b.Deltas, g.joinDelta(g.model.NextID))
		g.model.NextID++
	}
	g.model.apply(b)
	return b
}

func (g *generator) joinDelta(id int64) mldcsd.Delta {
	x := g.rng.Float64() * g.side
	y := g.rng.Float64() * g.side
	r := 0.5 + g.rng.Float64()
	return mldcsd.Delta{Op: mldcsd.OpJoin, Node: id, X: &x, Y: &y, R: &r}
}

// next emits the next action and keeps the model in sync for ingests.
func (g *generator) next() action {
	p := g.rng.Float64()
	switch {
	case p < 0.62:
		b := g.randomBatch(1 + g.rng.Intn(8))
		g.model.apply(b)
		return action{kind: actIngest, batch: b}
	case p < 0.74:
		return action{kind: actMalformed, raw: malformedPayloads[g.rng.Intn(len(malformedPayloads))]}
	case p < 0.84:
		return action{kind: actDisconnect, raw: `{"deltas":[{"op":"join","node":`}
	case p < 0.86 && g.restarts > 0:
		g.restarts--
		return action{kind: actRestart}
	default:
		// Ingest burst: one oversized batch, the coalescing stressor.
		b := g.randomBatch(8 + g.rng.Intn(24))
		g.model.apply(b)
		return action{kind: actIngest, batch: b}
	}
}

// randomBatch builds a valid wire batch of k deltas against the current
// model: moves, radius retunes, joins, leaves, and a tail of deltas
// aimed at absent nodes (the ignored path must converge too).
func (g *generator) randomBatch(k int) mldcsd.Batch {
	// Per-profile delta mix (cumulative thresholds over q) and move step.
	// The mobility profile drowns churn in small slides: almost every
	// delta nudges an existing node, so the server's engine sees ticks
	// where most dirty nodes did not move themselves — the kinetic repair
	// regime — while the rare join/leave keeps the churn paths honest.
	moveQ, radiusQ, joinQ, leaveQ, step := 0.50, 0.65, 0.80, 0.92, 0.6
	churn := g.profile == ProfileChurn
	switch g.profile {
	case ProfileMobility:
		moveQ, radiusQ, joinQ, leaveQ, step = 0.88, 0.92, 0.955, 0.975, 0.2
	case ProfileChurn:
		moveQ, radiusQ, joinQ, leaveQ = 0.15, 0.20, 0.55, 0.92
	}
	var b mldcsd.Batch
	joinedHere := map[int64]bool{}
	for len(b.Deltas) < k {
		q := g.rng.Float64()
		switch {
		case q < moveQ: // move an existing node a step
			id, ok := g.pick()
			if !ok {
				b.Deltas = append(b.Deltas, g.joinDelta(g.model.NextID))
				joinedHere[g.model.NextID] = true
				g.model.NextID++
				continue
			}
			st := g.model.peek(id, b)
			x := st.X + (g.rng.Float64()-0.5)*step
			y := st.Y + (g.rng.Float64()-0.5)*step
			b.Deltas = append(b.Deltas, mldcsd.Delta{Op: mldcsd.OpMove, Node: id, X: &x, Y: &y})
		case q < radiusQ: // retune a radius
			id, ok := g.pick()
			if !ok {
				continue
			}
			r := 0.5 + g.rng.Float64()
			b.Deltas = append(b.Deltas, mldcsd.Delta{Op: mldcsd.OpRadius, Node: id, R: &r})
		case q < joinQ: // join a brand-new node
			id := g.model.NextID
			if joinedHere[id] {
				continue
			}
			d := g.joinDelta(id)
			if churn {
				switch g.rng.Intn(8) {
				case 0, 1: // on a departed node's exact disk
					if len(g.departed) > 0 {
						setDisk(&d, g.departed[g.rng.Intn(len(g.departed))])
					}
				case 2: // on a live node's exact disk: an exact duplicate
					if live, ok := g.pick(); ok {
						setDisk(&d, g.model.peek(live, b))
					}
				}
			}
			b.Deltas = append(b.Deltas, d)
			joinedHere[id] = true
			g.model.NextID++
			if churn && g.rng.Intn(4) == 0 { // a fresh ID that leaves again at once
				b.Deltas = append(b.Deltas, mldcsd.Delta{Op: mldcsd.OpLeave, Node: id})
			}
		case q < leaveQ: // leave
			id, ok := g.pick()
			if !ok {
				continue
			}
			st := g.model.peek(id, b)
			b.Deltas = append(b.Deltas, mldcsd.Delta{Op: mldcsd.OpLeave, Node: id})
			if churn {
				g.departed = append(g.departed, st)
				if fresh := g.model.NextID; g.rng.Intn(3) == 0 && !joinedHere[fresh] {
					// A fresh ID takes the leaver's exact disk in the same batch.
					d := g.joinDelta(fresh)
					setDisk(&d, st)
					b.Deltas = append(b.Deltas, d)
					joinedHere[fresh] = true
					g.model.NextID++
				}
			}
		default: // poke an absent node: ignored on both sides
			id := g.model.NextID + int64(g.rng.Intn(50)) + 1
			x, y := g.rng.Float64(), g.rng.Float64()
			b.Deltas = append(b.Deltas, mldcsd.Delta{Op: mldcsd.OpMove, Node: id, X: &x, Y: &y})
		}
	}
	return b
}

// setDisk places a join delta on the given disk exactly.
func setDisk(d *mldcsd.Delta, st ModelNode) {
	x, y, r := st.X, st.Y, st.R
	d.X, d.Y, d.R = &x, &y, &r
}

// peek returns the node's state as of the end of the partial batch b —
// moves in one batch chain off each other, and the generator must walk
// from the same base the server will.
func (m *Model) peek(id int64, b mldcsd.Batch) ModelNode {
	st := m.Nodes[id]
	for _, d := range b.Deltas {
		if d.Node != id {
			continue
		}
		switch d.Op {
		case mldcsd.OpJoin:
			st = ModelNode{X: *d.X, Y: *d.Y, R: *d.R}
		case mldcsd.OpMove:
			st.X, st.Y = *d.X, *d.Y
		case mldcsd.OpRadius:
			st.R = *d.R
		}
	}
	return st
}

// pick returns a uniformly random live node ID. Deterministic: it walks
// the ID space from a random probe, not map order.
func (g *generator) pick() (int64, bool) {
	if len(g.model.Nodes) == 0 {
		return 0, false
	}
	probe := int64(g.rng.Intn(int(g.model.NextID)))
	for i := int64(0); i < g.model.NextID; i++ {
		id := (probe + i) % g.model.NextID
		if _, ok := g.model.Nodes[id]; ok {
			return id, true
		}
	}
	return 0, false
}

// syncBatch renders the whole model as one join batch — the client-side
// re-announcement a fresh server gets after a restart.
func (g *generator) syncBatch() (mldcsd.Batch, error) {
	var b mldcsd.Batch
	for id, st := range g.model.Nodes {
		x, y, r := st.X, st.Y, st.R
		b.Deltas = append(b.Deltas, mldcsd.Delta{Op: mldcsd.OpJoin, Node: id, X: &x, Y: &y, R: &r})
	}
	if len(b.Deltas) == 0 {
		return b, fmt.Errorf("empty model: nothing to sync")
	}
	// Map order is random; sort for a deterministic wire batch.
	sortDeltasByNode(b.Deltas)
	return b, nil
}

func sortDeltasByNode(ds []mldcsd.Delta) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j].Node < ds[j-1].Node; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

// malformedPayloads are the hostile bodies the harness throws at the
// ingest edge; every one must answer 400 and change nothing.
var malformedPayloads = []string{
	`{"deltas":[{"op":"join","node":1,"x":0`,
	`{"deltas":[]}`,
	`{"deltas":[{"op":"warp","node":1}]}`,
	`{"deltas":[{"op":"join","node":1,"x":1e999,"y":0,"r":1}]}`,
	`{"deltas":[{"op":"join","node":-7,"x":0,"y":0,"r":1}]}`,
	`{"deltas":[{"op":"join","node":2,"x":0,"y":0,"r":-1}]}`,
	`{"deltas":[{"op":"move","node":3}]}`,
	`{"deltas":[{"op":"leave","node":3,"x":1}]}`,
	`{"deltas":[{"op":"join","node":4,"x":0,"y":0,"r":1,"spin":9}]}`,
	`not json at all`,
	`{"deltas":[{"op":"leave","node":1}]}trailing`,
	`{"deltas":[{"op":"join","node":5,"x":0,"y":0,"r":1},{"op":"join","node":5,"x":1,"y":1,"r":1}]}`,
}
