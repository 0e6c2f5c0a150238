package mldcsd_test

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/e2e"
	"repro/internal/mldcsd"
)

// TestExactDuplicateTieBreakMatchesOracle pins the key tie-break against
// the sequential oracle. Node 30 hears two nodes with bit-identical disks,
// so its skyline can name either; the oracle numbers nodes in external-ID
// order and picks the lower ID. The stream arranges the duplicates so that
// slot order disagrees with ID order — node 10 leaves and node 40 joins
// into its slot 0 beside node 20 in slot 1 — then has fresh IDs reuse
// slot 1 with a disk bitwise equal to the leaver's, so only the key
// changes: first to 50 (the tie flips to slot 0), then to 15 (it flips
// back). The near-duplicate steps then replace the pair with disks of
// equal radius centred 1e-12 apart, which tie within geom.RhoEps just as
// exact duplicates do: the lower ID must represent whichever way its
// centre's coordinates sort against its partner's (larger x, more
// negative x, smaller y), and re-keying it upward must hand the tie to
// the partner. After every step /v1/state must equal the oracle byte for
// byte, which fails if ties fall back to slot or coordinate order or a
// key change on an identical disk is dropped as a no-op, and every owner
// /v1/skyline names must be in its hub's forwarding set.
func TestExactDuplicateTieBreakMatchesOracle(t *testing.T) {
	s := mldcsd.New(mldcsd.Config{})
	defer s.Close()
	h := s.Handler()
	dup := e2e.ModelNode{X: 0.5, Y: 0, R: 1}
	model := map[int64]e2e.ModelNode{}
	steps := []struct {
		name, body string
		leave      []int64
		set        map[int64]e2e.ModelNode
	}{
		{"initial", `{"deltas":[{"op":"join","node":10,"x":-0.5,"y":0.25,"r":1},{"op":"join","node":20,"x":0.5,"y":0,"r":1},{"op":"join","node":30,"x":0,"y":0,"r":1}]}`,
			nil, map[int64]e2e.ModelNode{10: {X: -0.5, Y: 0.25, R: 1}, 20: dup, 30: {X: 0, Y: 0, R: 1}}},
		{"larger ID into the smaller slot", `{"deltas":[{"op":"leave","node":10},{"op":"join","node":40,"x":0.5,"y":0,"r":1}]}`,
			[]int64{10}, map[int64]e2e.ModelNode{40: dup}},
		{"re-key the lower-ID duplicate upward", `{"deltas":[{"op":"leave","node":20},{"op":"join","node":50,"x":0.5,"y":0,"r":1}]}`,
			[]int64{20}, map[int64]e2e.ModelNode{50: dup}},
		{"re-key it back below", `{"deltas":[{"op":"leave","node":50},{"op":"join","node":15,"x":0.5,"y":0,"r":1}]}`,
			[]int64{50}, map[int64]e2e.ModelNode{15: dup}},
		{"near duplicate, lower ID at the larger x", `{"deltas":[{"op":"leave","node":40},{"op":"leave","node":15},{"op":"join","node":10,"x":0.500000000001,"y":0,"r":1},{"op":"join","node":20,"x":0.5,"y":0,"r":1}]}`,
			[]int64{40, 15}, map[int64]e2e.ModelNode{10: {X: 0.500000000001, Y: 0, R: 1}, 20: dup}},
		{"near duplicate, lower ID at the more negative x", `{"deltas":[{"op":"move","node":10,"x":-0.500000000001,"y":0},{"op":"move","node":20,"x":-0.5,"y":0}]}`,
			nil, map[int64]e2e.ModelNode{10: {X: -0.500000000001, Y: 0, R: 1}, 20: {X: -0.5, Y: 0, R: 1}}},
		{"near duplicate, lower ID at the larger y", `{"deltas":[{"op":"move","node":10,"x":0,"y":0.5},{"op":"move","node":20,"x":0,"y":0.499999999999}]}`,
			nil, map[int64]e2e.ModelNode{10: {X: 0, Y: 0.5, R: 1}, 20: {X: 0, Y: 0.499999999999, R: 1}}},
		{"re-key the near duplicate upward", `{"deltas":[{"op":"leave","node":10},{"op":"join","node":25,"x":0,"y":0.5,"r":1}]}`,
			[]int64{10}, map[int64]e2e.ModelNode{25: {X: 0, Y: 0.5, R: 1}}},
	}
	for _, st := range steps {
		for _, id := range st.leave {
			delete(model, id)
		}
		for id, n := range st.set {
			model[id] = n
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/deltas", strings.NewReader(st.body)))
		var ack mldcsd.IngestResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &ack); rec.Code != 202 || err != nil {
			t.Fatalf("%s: ingest %d %s", st.name, rec.Code, rec.Body)
		}
		for deadline := time.Now().Add(10 * time.Second); s.Latest().AppliedSeq < ack.Seq; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: batch %d not applied", st.name, ack.Seq)
			}
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/state", nil))
		var doc mldcsd.StateDoc
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		oracle, err := e2e.OracleNodes(&e2e.Model{Nodes: model})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(doc.Nodes)
		want, _ := json.Marshal(oracle)
		if string(got) != string(want) {
			t.Fatalf("%s: /v1/state differs from the oracle:\n  served: %s\n  oracle: %s", st.name, got, want)
		}
		// /v1/skyline must name the same duplicate as the forwarding set.
		for _, hub := range doc.Nodes {
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/v1/skyline?node=%d", hub.ID), nil))
			var sky mldcsd.SkylineResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &sky); err != nil {
				t.Fatal(err)
			}
			for _, a := range sky.Arcs {
				if a.Node != hub.ID && !slices.Contains(hub.Forwarding, a.Node) {
					t.Fatalf("%s: node %d's skyline arc owned by %d, forwarding set is %v", st.name, hub.ID, a.Node, hub.Forwarding)
				}
			}
		}
	}
}
