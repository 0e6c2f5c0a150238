package main

import (
	"bytes"
	"testing"

	"repro/internal/mldcsd"
)

// genSmall generates a short stream of workload w: 60 batches, the first
// 40 of them inside the query period, and 200 queries.
func genSmall(t *testing.T, w workload, seed int64) *stream {
	t.Helper()
	st, err := w.generate(seed, 60, 200, 40)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return st
}

func decodeAll(t *testing.T, st *stream) []mldcsd.Batch {
	t.Helper()
	out := make([]mldcsd.Batch, len(st.batches))
	for i, b := range st.batches {
		var err error
		if out[i], err = mldcsd.DecodeBatch(bytes.NewReader(b), 4096); err != nil {
			t.Fatalf("batch %d does not decode: %v", i, err)
		}
	}
	return out
}

func TestStreamIsPureFunctionOfSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := genSmall(t, w, 7), genSmall(t, w, 7)
		if !bytes.Equal(a.initial, b.initial) {
			t.Errorf("%s: initial batch differs between two generations of seed 7", w.name)
		}
		if len(a.batches) != len(b.batches) || len(a.queries) != len(b.queries) {
			t.Fatalf("%s: stream lengths differ", w.name)
		}
		for i := range a.batches {
			if !bytes.Equal(a.batches[i], b.batches[i]) {
				t.Errorf("%s: batch %d differs between two generations of seed 7", w.name, i)
			}
		}
		for i := range a.queries {
			if a.queries[i] != b.queries[i] || a.queryDue[i] != b.queryDue[i] {
				t.Errorf("%s: query %d differs between two generations of seed 7", w.name, i)
			}
		}
		if c := genSmall(t, w, 8); bytes.Equal(a.batches[0], c.batches[0]) {
			t.Errorf("%s: seeds 7 and 8 give the same first batch", w.name)
		}
	}
}

func TestNoNodeTwiceInABatch(t *testing.T) {
	for _, w := range workloads {
		for i, b := range decodeAll(t, genSmall(t, w, 3)) {
			seen := make(map[int64]bool)
			for _, d := range b.Deltas {
				if seen[d.Node] {
					t.Errorf("%s: batch %d names node %d twice", w.name, i, d.Node)
				}
				seen[d.Node] = true
			}
		}
	}
}

func TestChurnKeepsNetworkSizeAndQueriesLiveNodes(t *testing.T) {
	w, err := findWorkload("churn-5k")
	if err != nil {
		t.Fatal(err)
	}
	st := genSmall(t, w, 5)
	live := make(map[int64]bool, st.initialN)
	for id := int64(0); id < int64(st.initialN); id++ {
		live[id] = true
	}
	left := make(map[int64]bool)
	for i, b := range decodeAll(t, st) {
		leaves, joins := 0, 0
		for _, d := range b.Deltas {
			switch d.Op {
			case mldcsd.OpLeave:
				if !live[d.Node] {
					t.Fatalf("batch %d: leave of node %d, which is not live", i, d.Node)
				}
				delete(live, d.Node)
				if i < 40 {
					left[d.Node] = true
				}
				leaves++
			case mldcsd.OpJoin:
				if live[d.Node] || left[d.Node] {
					t.Fatalf("batch %d: join reuses node ID %d", i, d.Node)
				}
				live[d.Node] = true
				joins++
			default:
				t.Fatalf("batch %d: unexpected op %q", i, d.Op)
			}
		}
		if leaves != churnPerBatch || joins != churnPerBatch {
			t.Fatalf("batch %d: %d leaves and %d joins, want %d of each", i, leaves, joins, churnPerBatch)
		}
		if len(live) != st.initialN {
			t.Fatalf("after batch %d: %d live nodes, want %d", i, len(live), st.initialN)
		}
	}
	if len(st.final) != st.initialN {
		t.Errorf("intended table holds %d nodes, want %d", len(st.final), st.initialN)
	}
	for _, q := range st.queries {
		if left[q] || q >= int64(st.initialN) {
			t.Fatalf("query names node %d, which is not live through the query period", q)
		}
	}
}
