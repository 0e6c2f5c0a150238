// Package broadcast simulates network-wide broadcasting to quantify the
// broadcast storm problem the paper opens with (§1.2): how many
// transmissions a broadcast costs, how many nodes it reaches, and how much
// reception redundancy it induces, under blind flooding versus
// forwarding-set-based relaying.
//
// The simulation is a deterministic discrete-event process in hop rounds.
// Relaying follows multipoint-relay semantics: when a node first receives
// the message, it retransmits if and only if it belongs to the forwarding
// set of the node it first heard from. Transmissions propagate over the
// graph's out-edges, so running on a Unidirectional graph models the
// physical reception asymmetries while forwarding sets are chosen on the
// bidirectional topology, and running on a Bidirectional graph matches the
// paper's idealized model.
package broadcast

import (
	"fmt"
	"sort"

	"repro/internal/forwarding"
	"repro/internal/network"
	"repro/internal/obs"
)

// Result summarizes one simulated broadcast.
type Result struct {
	// Transmissions is the number of nodes that transmitted (including the
	// source).
	Transmissions int
	// Delivered is the number of nodes that received the message
	// (excluding the source).
	Delivered int
	// Reachable is the number of nodes (excluding the source) reachable
	// from the source in the graph; Delivered/Reachable is the delivery
	// ratio.
	Reachable int
	// Redundant counts receptions beyond each node's first: the wasted
	// receptions that constitute the broadcast storm.
	Redundant int
	// MaxHop is the largest hop count at which any node first received
	// the message.
	MaxHop int
	// Received[v] reports whether node v got the message.
	Received []bool
	// Parent[v] is the node from which v first received the message (−1
	// for the source and for nodes that never received). Populated by
	// Run; other simulations leave it nil. The parent pointers
	// form the reverse-path tree that route discovery walks back.
	Parent []int
	// Transmitted[v] reports whether node v transmitted. Populated by
	// Run; other simulations leave it nil. Energy accounting
	// (transmission cost ∝ r²) is built on this.
	Transmitted []bool
}

// TxEnergy returns the total transmission energy of the broadcast under
// the standard disk model, where one transmission at radius r costs
// energy proportional to the covered area r² (unit constant). Zero when
// the simulation did not record transmitters.
func (r Result) TxEnergy(g *network.Graph) float64 {
	total := 0.0
	for v, tx := range r.Transmitted {
		if tx {
			rad := g.Node(v).Radius
			total += rad * rad
		}
	}
	return total
}

// DeliveryRatio returns Delivered / Reachable (1 when nothing is
// reachable).
func (r Result) DeliveryRatio() float64 {
	if r.Reachable == 0 {
		return 1
	}
	return float64(r.Delivered) / float64(r.Reachable)
}

// Run simulates a broadcast from source using the selector to choose each
// relaying node's forwarding set. Forwarding sets are computed on demand,
// only for nodes that actually transmit. fwd may be nil, in which case
// every node relays (blind flooding).
//
// When g is unidirectional, forwarding sets are still chosen on the
// derived bidirectional topology (what the nodes' HELLO tables describe),
// while propagation uses the physical reception edges.
func Run(g *network.Graph, source int, fwd forwarding.Selector) (Result, error) {
	if source < 0 || source >= g.Len() {
		return Result{}, fmt.Errorf("broadcast: source %d out of range [0, %d)", source, g.Len())
	}
	selGraph := g
	if fwd != nil && g.Model() == network.Unidirectional {
		bi, err := network.Build(g.Nodes(), network.Bidirectional)
		if err != nil {
			return Result{}, err
		}
		selGraph = bi
	}

	m := bcInstr.Load()
	if m != nil {
		m.runs.Inc()
	}

	res := Result{Received: make([]bool, g.Len())}
	for _, d := range g.HopDistances(source) {
		if d > 0 {
			res.Reachable++
		}
	}

	type pending struct {
		node int
		hop  int
	}
	// frontier holds nodes that will transmit this round.
	frontier := []pending{{source, 0}}
	res.Received[source] = true
	res.Parent = make([]int, g.Len())
	for i := range res.Parent {
		res.Parent[i] = -1
	}
	res.Transmitted = make([]bool, g.Len())

	round := 0
	for len(frontier) > 0 {
		// Deterministic order within a round.
		sort.Slice(frontier, func(a, b int) bool { return frontier[a].node < frontier[b].node })
		round++
		var roundSpan obs.Span
		if m != nil {
			roundSpan = m.spanRound.Begin()
		}
		// Per-round instrumentation deltas, accumulated locally so the
		// reception loops carry no atomic traffic.
		roundReceptions := 0
		prevDelivered, prevRedundant := res.Delivered, res.Redundant
		var next []pending
		// First, all transmissions of this round are delivered.
		type arrival struct{ to, from, hop int }
		var arrivals []arrival
		for _, tx := range frontier {
			res.Transmissions++
			res.Transmitted[tx.node] = true
			for _, v := range g.Neighbors(tx.node) {
				roundReceptions++
				if res.Received[v] {
					res.Redundant++
					continue
				}
				arrivals = append(arrivals, arrival{v, tx.node, tx.hop + 1})
			}
		}
		// Then receptions are processed; a node reached by several
		// same-round transmissions takes the lowest-ID parent first and
		// counts the rest as redundant.
		for _, a := range arrivals {
			if res.Received[a.to] {
				res.Redundant++
				continue
			}
			res.Received[a.to] = true
			res.Parent[a.to] = a.from
			res.Delivered++
			if a.hop > res.MaxHop {
				res.MaxHop = a.hop
			}
			relay := true
			if fwd != nil {
				set, err := fwd.Select(selGraph, a.from)
				if err != nil {
					return Result{}, err
				}
				if m != nil {
					m.fwdSetSize.Observe(float64(len(set)))
				}
				relay = containsID(set, a.to)
			}
			if relay {
				next = append(next, pending{a.to, a.hop})
			}
		}
		if m != nil {
			m.recordRound(round, len(frontier), roundReceptions,
				res.Delivered-prevDelivered, res.Redundant-prevRedundant)
		}
		if roundSpan.Sampled() {
			roundSpan.End(map[string]any{"round": round, "transmitters": len(frontier)})
		}
		frontier = next
	}
	if m != nil {
		m.recordDone(source, &res, 0)
	}
	return res, nil
}

func containsID(sorted []int, id int) bool {
	i := sort.SearchInts(sorted, id)
	return i < len(sorted) && sorted[i] == id
}
