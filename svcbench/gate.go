package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"repro/internal/e2e"
	"repro/internal/mldcsd"
)

// checkForwarding checks one /v1/forwarding answer: status 200, the node
// asked about, and a forwarding set drawn from the node's neighbors.
func checkForwarding(rw *recorder, node int64, q *mldcsd.QueryResponse) (uint64, error) {
	if rw.status != http.StatusOK {
		return 0, fmt.Errorf("forwarding?node=%d: status %d", node, rw.status)
	}
	*q = mldcsd.QueryResponse{}
	if err := json.Unmarshal(rw.body.Bytes(), q); err != nil {
		return 0, fmt.Errorf("forwarding?node=%d: decode: %w", node, err)
	}
	if q.Node != node {
		return q.Epoch, fmt.Errorf("forwarding: asked node %d, answered %d", node, q.Node)
	}
	if !sortedSubset(q.Forwarding, q.Neighbors) {
		return q.Epoch, fmt.Errorf("node %d: forwarding %v not within neighbors %v", node, q.Forwarding, q.Neighbors)
	}
	return q.Epoch, nil
}

// checkSkyline checks one /v1/skyline answer: status 200, the node asked
// about, and arcs that tile [0, 2π) with no gap or overlap. Adjacent arcs
// share their breakpoint bit for bit and JSON round-trips float64
// exactly, so the seams are compared exactly.
func checkSkyline(rw *recorder, node int64, q *mldcsd.SkylineResponse) (uint64, error) {
	if rw.status != http.StatusOK {
		return 0, fmt.Errorf("skyline?node=%d: status %d", node, rw.status)
	}
	*q = mldcsd.SkylineResponse{}
	if err := json.Unmarshal(rw.body.Bytes(), q); err != nil {
		return 0, fmt.Errorf("skyline?node=%d: decode: %w", node, err)
	}
	if q.Node != node {
		return q.Epoch, fmt.Errorf("skyline: asked node %d, answered %d", node, q.Node)
	}
	if len(q.Arcs) == 0 {
		return q.Epoch, fmt.Errorf("node %d: empty skyline", node)
	}
	prev := 0.0
	for _, a := range q.Arcs {
		if a.Start != prev || !(a.End > a.Start) {
			return q.Epoch, fmt.Errorf("node %d: skyline seam at %v→%v", node, prev, a.Start)
		}
		prev = a.End
	}
	if math.Abs(prev-2*math.Pi) > 1e-9 {
		return q.Epoch, fmt.Errorf("node %d: skyline ends at %v, want 2π", node, prev)
	}
	return q.Epoch, nil
}

func sortedSubset(sub, super []int64) bool {
	j := 0
	for _, v := range sub {
		for j < len(super) && super[j] < v {
			j++
		}
		if j >= len(super) || super[j] != v {
			return false
		}
	}
	return true
}

// checkState is the run's correctness gate: the served final world must
// hold exactly the intended node table, and must equal, byte for byte as
// JSON, the sequential oracle's answer for that table (network.Build,
// LocalSet and mldcs.Solve per node, none of the service's machinery).
func checkState(served []mldcsd.NodeState, table map[int64]e2e.ModelNode) error {
	if len(served) != len(table) {
		return fmt.Errorf("served %d nodes, intended %d", len(served), len(table))
	}
	for _, n := range served {
		want, ok := table[n.ID]
		if !ok {
			return fmt.Errorf("served node %d, which is not in the intended table", n.ID)
		}
		if n.X != want.X || n.Y != want.Y || n.R != want.R {
			return fmt.Errorf("node %d served at (%v, %v, r=%v), intended (%v, %v, r=%v)",
				n.ID, n.X, n.Y, n.R, want.X, want.Y, want.R)
		}
	}
	oracle, err := e2e.OracleNodes(&e2e.Model{Nodes: table})
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	sb, err := json.Marshal(served)
	if err != nil {
		return err
	}
	ob, err := json.Marshal(oracle)
	if err != nil {
		return err
	}
	if bytes.Equal(sb, ob) {
		return nil
	}
	for i := range served {
		s1, _ := json.Marshal(served[i])
		o1, _ := json.Marshal(oracle[i])
		if !bytes.Equal(s1, o1) {
			return fmt.Errorf("served state differs from the oracle at node %d:\n  served: %s\n  oracle: %s", served[i].ID, s1, o1)
		}
	}
	return fmt.Errorf("served state differs from the oracle")
}
