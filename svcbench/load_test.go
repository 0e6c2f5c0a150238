package main

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/mldcsd"
)

func TestObserverAttributesVisibilityToCreated(t *testing.T) {
	base := time.Unix(1000, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	o := newObserver(10)
	o.observe(&mldcsd.Snapshot{Epoch: 1, AppliedSeq: 1, Created: at(1)})
	o.observe(&mldcsd.Snapshot{Epoch: 2, AppliedSeq: 3, Created: at(20)})
	// Loaded again later: attribution keeps the publish stamp.
	o.observe(&mldcsd.Snapshot{Epoch: 2, AppliedSeq: 3, Created: at(20)})
	// Epochs 3 and 4 were never loaded: counted, and their batches go to
	// the next epoch seen.
	o.observe(&mldcsd.Snapshot{Epoch: 5, AppliedSeq: 6, Created: at(50)})
	// A stale snapshot loaded by a slower loop changes nothing.
	o.observe(&mldcsd.Snapshot{Epoch: 4, AppliedSeq: 5, Created: at(40)})

	want := map[uint64]time.Time{1: at(1), 2: at(20), 3: at(20), 4: at(50), 5: at(50), 6: at(50), 7: {}}
	for seq, w := range want {
		if got := o.visibleAt(seq); !got.Equal(w) {
			t.Errorf("seq %d visible at %v, want %v", seq, got, w)
		}
	}
	if o.missed != 2 {
		t.Errorf("missed epochs = %d, want 2", o.missed)
	}
	if len(o.epochs) != 3 {
		t.Errorf("recorded %d epochs, want 3", len(o.epochs))
	}
}

func TestClosedLoopKeepsAtMost32Outstanding(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 5000
	var accepted, applied uint64 = 100, 100
	maxOut := uint64(0)
	err := closedLoop(n, capOutstanding, accepted,
		func(i int) (uint64, error) {
			accepted++
			maxOut = max(maxOut, accepted-applied)
			return accepted, nil
		},
		func() uint64 { return applied },
		func() error {
			// The applier folds up to 16 queued batches per pass.
			applied = min(accepted, applied+uint64(rng.Intn(17)))
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 100+n || applied != accepted {
		t.Errorf("accepted %d, applied %d; want both %d", accepted, applied, 100+n)
	}
	if maxOut > capOutstanding {
		t.Errorf("%d batches outstanding at once, want ≤ %d", maxOut, capOutstanding)
	}
	if maxOut < capOutstanding {
		t.Errorf("never reached %d outstanding (max %d): the loop under-drives the applier", capOutstanding, maxOut)
	}
}

// TestServerConvergesToOracle drives a real server through set-up and
// the closed loop on a short churn stream, then applies the run's
// correctness gate, and checks the gate rejects a wrong table.
func TestServerConvergesToOracle(t *testing.T) {
	w, err := findWorkload("churn-5k")
	if err != nil {
		t.Fatal(err)
	}
	st := genSmall(t, w, 11)
	s, reg, _, err := setup(st)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{s: s, h: s.Handler(), reg: reg, st: st, obs: newObserver(len(st.batches) + 1)}
	if _, _, err := h.capacity(0, len(st.batches)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	doc, err := h.state()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkState(doc.Nodes, st.final); err != nil {
		t.Fatal(err)
	}
	for id, n := range st.final {
		n.X += 1e-9
		st.final[id] = n
		break
	}
	if err := checkState(doc.Nodes, st.final); err == nil {
		t.Error("gate accepted a served state that differs from the intended table")
	}
}

// TestOpenLoopRecordsEveryOperation runs both load loops at once against
// a live server (run it with -race: they share the observer) and checks
// every operation succeeded and every batch was attributed a visibility.
func TestOpenLoopRecordsEveryOperation(t *testing.T) {
	w, err := findWorkload("churn-5k")
	if err != nil {
		t.Fatal(err)
	}
	st := genSmall(t, w, 13)
	s, reg, _, err := setup(st)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const nb, nq = 10, 160 // 0.4 s of open loop
	h := &harness{s: s, h: s.Handler(), reg: reg, st: st, obs: newObserver(len(st.batches) + 1),
		batches: make([]batchRec, nb), queries: make([]queryRec, nq)}
	h.obs.observe(s.Latest())
	t0 := time.Now()
	done := make(chan struct{})
	go func() { defer close(done); h.readLoop(t0, nq) }()
	h.ingestLoop(t0, nb)
	<-done
	if err := h.waitVisible(nb + 1); err != nil {
		t.Fatal(err)
	}
	for i, b := range h.batches {
		if b.err != nil {
			t.Errorf("batch %d: %v", i, b.err)
		} else if at := h.obs.visibleAt(b.seq); at.IsZero() || at.Before(b.send) {
			t.Errorf("batch %d (seq %d) visible at %v, sent at %v", i, b.seq, at, b.send)
		}
	}
	for j, q := range h.queries {
		if q.err != nil {
			t.Errorf("query %d: %v", j, q.err)
		}
		if q.send.Before(q.due) {
			t.Errorf("query %d sent %v before it was due", j, q.due.Sub(q.send))
		}
	}
}

func TestResponseChecks(t *testing.T) {
	rw := newRecorder()
	rw.WriteHeader(200)
	rw.body.WriteString(`{"epoch":3,"node":7,"arcs":[{"node":7,"start":0,"end":3},{"node":9,"start":3,"end":6.283185307179586}]}`)
	var sky mldcsd.SkylineResponse
	if ep, err := checkSkyline(rw, 7, &sky); err != nil || ep != 3 {
		t.Errorf("tiling skyline: epoch %d, err %v", ep, err)
	}
	rw.reset()
	rw.WriteHeader(200)
	rw.body.WriteString(`{"epoch":3,"node":7,"arcs":[{"node":7,"start":0,"end":3},{"node":9,"start":3.5,"end":6.283185307179586}]}`)
	if _, err := checkSkyline(rw, 7, &sky); err == nil {
		t.Error("skyline with a gap passed the check")
	}
	rw.reset()
	rw.WriteHeader(200)
	rw.body.WriteString(`{"epoch":3,"node":7,"neighbors":[1,4,9],"forwarding":[4,5]}`)
	var fwd mldcsd.QueryResponse
	if _, err := checkForwarding(rw, 7, &fwd); err == nil {
		t.Error("forwarding set outside the neighbors passed the check")
	}
	rw.reset()
	rw.WriteHeader(404)
	if _, err := checkForwarding(rw, 7, &fwd); err == nil {
		t.Error("404 passed the check")
	}
}
