package mldcsd_test

import (
	"encoding/json"
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
// back). After every step /v1/state must equal the oracle byte for byte,
// which fails if exact ties fall back to slot order or a key change on an
// identical disk is dropped as a no-op.
func TestExactDuplicateTieBreakMatchesOracle(t *testing.T) {
	s := mldcsd.New(mldcsd.Config{})
	defer s.Close()
	h := s.Handler()
	dup := e2e.ModelNode{X: 0.5, Y: 0, R: 1}
	model := map[int64]e2e.ModelNode{
		10: {X: -0.5, Y: 0.25, R: 1},
		20: dup,
		30: {X: 0, Y: 0, R: 1},
	}
	steps := []struct {
		name, body string
		leave      int64
		join       int64
	}{
		{"initial", `{"deltas":[{"op":"join","node":10,"x":-0.5,"y":0.25,"r":1},{"op":"join","node":20,"x":0.5,"y":0,"r":1},{"op":"join","node":30,"x":0,"y":0,"r":1}]}`, -1, -1},
		{"larger ID into the smaller slot", `{"deltas":[{"op":"leave","node":10},{"op":"join","node":40,"x":0.5,"y":0,"r":1}]}`, 10, 40},
		{"re-key the lower-ID duplicate upward", `{"deltas":[{"op":"leave","node":20},{"op":"join","node":50,"x":0.5,"y":0,"r":1}]}`, 20, 50},
		{"re-key it back below", `{"deltas":[{"op":"leave","node":50},{"op":"join","node":15,"x":0.5,"y":0,"r":1}]}`, 50, 15},
	}
	for _, st := range steps {
		if st.leave >= 0 {
			delete(model, st.leave)
			model[st.join] = dup
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
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/skyline?node=30", nil))
		var sky mldcsd.SkylineResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &sky); err != nil {
			t.Fatal(err)
		}
		hub := doc.Nodes[slices.IndexFunc(doc.Nodes, func(n mldcsd.NodeState) bool { return n.ID == 30 })]
		for _, a := range sky.Arcs {
			if a.Node != 30 && !slices.Contains(hub.Forwarding, a.Node) {
				t.Fatalf("%s: skyline arc owned by %d, forwarding set is %v", st.name, a.Node, hub.Forwarding)
			}
		}
	}
}
