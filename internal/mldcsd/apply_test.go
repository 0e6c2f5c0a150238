package mldcsd

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestDeltaVisibleCountsAppliedBatches: mldcsd_delta_visible_seconds takes
// one sample per applied batch — through both the Compute path (joins)
// and the Move path (moves), whatever the coalescing — so its count is
// the number of batches applied.
func TestDeltaVisibleCountsAppliedBatches(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{Registry: reg})
	const batches = 24
	for i := 0; i < batches; i++ {
		op := `"op":"move"`
		if i < 4 {
			op = `"op":"join","r":1`
		}
		resp := postBatch(t, ts.URL, fmt.Sprintf(`{"deltas":[{%s,"node":%d,"x":%d,"y":0}]}`, op, i%4, i))
		var ack IngestResponse
		decodeInto(t, resp, &ack)
	}
	if err := s.Close(); err != nil { // drains every accepted batch
		t.Fatal(err)
	}
	if got := s.Latest().AppliedSeq; got != batches {
		t.Fatalf("applied seq %d, want %d", got, batches)
	}
	snap := reg.Snapshot()
	if got := snap.Timers[MetricDeltaVisible].Count; got != batches {
		t.Fatalf("%s count = %d, want %d applied batches", MetricDeltaVisible, got, batches)
	}
	vis, lag := snap.Timers[MetricDeltaVisible], snap.Timers[MetricIngestLag]
	if vis.Sum < lag.Sum {
		t.Fatalf("accept→visible total %gs is below accept→apply total %gs", vis.Sum, lag.Sum)
	}
}

// mobilityServer starts a server holding n nodes at constant density (a
// homogeneous unit-radius deployment of mean degree 6, external IDs in
// random spatial order) and returns it with the positions.
func mobilityServer(t *testing.T, n int) (*Server, []float64, []float64) {
	t.Helper()
	s := New(Config{Coalesce: 1, MaxBatchDeltas: n, EngineWorkers: 1})
	t.Cleanup(func() { s.Close() })
	side := math.Sqrt(float64(n) * math.Pi / 6)
	rng := rand.New(rand.NewSource(int64(n)))
	xs, ys := make([]float64, n), make([]float64, n)
	one := 1.0
	joins := make([]Delta, n)
	for i := range joins {
		xs[i], ys[i] = rng.Float64()*side, rng.Float64()*side
		joins[i] = Delta{Op: OpJoin, Node: int64(i), X: &xs[i], Y: &ys[i], R: &one}
	}
	seq, status := s.admit(Batch{Deltas: joins})
	if status != 202 {
		t.Fatalf("initial join batch refused: %d", status)
	}
	// The initial Compute outlasts waitApplied's deadline under -race.
	for deadline := time.Now().Add(2 * time.Minute); s.Latest().AppliedSeq < seq; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("initial %d-node batch not applied", n)
		}
	}
	return s, xs, ys
}

// TestMobilityApplyBytesFlatInN pins O(dirty) publishing: the bytes mldcsd
// allocates to apply one 20-move batch must not grow with the network. A
// pass that re-renders the dense node set or copies N-length result
// slices allocates about 90 bytes per node, so quadrupling N from 20k to
// 80k nodes quadruples its bytes; the paged store copies only the pages
// of dirty nodes plus an N/8-pointer directory, and stays well under 2×.
func TestMobilityApplyBytesFlatInN(t *testing.T) {
	measure := func(n int) uint64 {
		s, xs, ys := mobilityServer(t, n)
		rng := rand.New(rand.NewSource(3))
		// Prebuild the batches so only the apply allocates while measuring.
		const movers, rounds = 20, 8
		batches := make([]Batch, rounds)
		for r := range batches {
			ds := make([]Delta, movers)
			for k := range ds {
				u := rng.Intn(n)
				x, y := xs[u]+0.01*(rng.Float64()-0.5), ys[u]+0.01*(rng.Float64()-0.5)
				ds[k] = Delta{Op: OpMove, Node: int64(u), X: &x, Y: &y}
			}
			batches[r] = Batch{Deltas: ds}
		}
		best := uint64(math.MaxUint64)
		for r, b := range batches {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			seq, status := s.admit(b)
			if status != 202 {
				t.Fatalf("move batch refused: %d", status)
			}
			waitApplied(t, s, seq)
			runtime.ReadMemStats(&m1)
			if r >= 2 { // the first passes grow the engine's buffers
				best = min(best, m1.TotalAlloc-m0.TotalAlloc)
			}
		}
		if st := s.Latest().Res.Stats; st.Moved == 0 || st.Dirty <= st.Moved {
			t.Fatalf("n=%d: the last pass moved %d and dirtied %d nodes; not a mobility pass", n, st.Moved, st.Dirty)
		}
		return best
	}
	small, large := measure(20000), measure(80000)
	t.Logf("bytes per 20-move apply: %d at 20k nodes, %d at 80k nodes (%.2f×)", small, large, float64(large)/float64(small))
	if float64(large) >= 2*float64(small) {
		t.Fatalf("applying 20 moves allocated %d bytes at 20k nodes and %d at 80k (%.2f×); publishing is not O(dirty)",
			small, large, float64(large)/float64(small))
	}
}

// TestSnapshotIDsSharedUntilMembershipChanges pins the ID-mapping
// contract: every epoch with the same membership publishes the same IDs
// and Slots slices (no per-epoch copy), and a join or leave publishes
// fresh ones while earlier snapshots keep their mapping intact.
func TestSnapshotIDsSharedUntilMembershipChanges(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	post := func(body string) *Snapshot {
		var ack IngestResponse
		decodeInto(t, postBatch(t, ts.URL, body), &ack)
		return waitApplied(t, s, ack.Seq)
	}
	first := post(`{"deltas":[{"op":"join","node":30,"x":0,"y":0,"r":1},{"op":"join","node":10,"x":0.5,"y":0,"r":1}]}`)
	moved := post(`{"deltas":[{"op":"move","node":30,"x":0.2,"y":0.1},{"op":"radius","node":10,"r":1.5}]}`)
	if &moved.IDs[0] != &first.IDs[0] || &moved.Slots[0] != &first.Slots[0] {
		t.Fatal("a pure-mobility epoch copied the ID mapping")
	}
	// IDs are [10 30], so node 30's slot is Slots[1].
	if n30 := moved.Res.Node(moved.Slots[1]); moved.Res.Stats.Moved != 2 || n30.Pos.X != 0.2 {
		t.Fatalf("mobility epoch: moved %d, node 30 at %+v", moved.Res.Stats.Moved, n30)
	}
	joined := post(`{"deltas":[{"op":"join","node":20,"x":0.4,"y":0.4,"r":1}]}`)
	if &joined.IDs[0] == &first.IDs[0] || &joined.Slots[0] == &first.Slots[0] {
		t.Fatal("a membership change reused the published ID slices")
	}
	if want := []int64{10, 20, 30}; !reflect.DeepEqual(joined.IDs, want) {
		t.Fatalf("IDs after join = %v, want %v", joined.IDs, want)
	}
	// Set-up joins take slots in Hilbert-curve order of position over the
	// batch's bounding box: node 30 at (0, 0) starts the curve and node 10
	// at (0.5, 0) ends it. A later join with no free slot grows the range.
	if want := []int{1, 2, 0}; !reflect.DeepEqual(joined.Slots, want) {
		t.Fatalf("Slots after join = %v, want %v", joined.Slots, want)
	}
	if want := []int64{10, 30}; !reflect.DeepEqual(first.IDs, want) || !reflect.DeepEqual(moved.IDs, want) {
		t.Fatalf("earlier snapshots' IDs changed: %v, %v", first.IDs, moved.IDs)
	}
}

// TestNodesCountsLiveNodesNotSlots: while a freed slot is still free, the
// engine's Stats.Nodes, the mldcsd_nodes gauge and /v1/epoch all report
// live nodes, not the slot range.
func TestNodesCountsLiveNodesNotSlots(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{Registry: reg})
	var ack IngestResponse
	decodeInto(t, postBatch(t, ts.URL, `{"deltas":[{"op":"join","node":1,"x":0,"y":0,"r":1},{"op":"join","node":2,"x":0.5,"y":0,"r":1},{"op":"join","node":3,"x":1,"y":0,"r":1}]}`), &ack)
	decodeInto(t, postBatch(t, ts.URL, `{"deltas":[{"op":"leave","node":2}]}`), &ack)
	sn := waitApplied(t, s, ack.Seq)
	if sn.Res.Len() != 3 {
		t.Fatalf("slot range %d, want 3 (the freed slot stays free)", sn.Res.Len())
	}
	var ep EpochResponse
	resp, err := http.Get(ts.URL + "/v1/epoch")
	if err != nil {
		t.Fatal(err)
	}
	decodeInto(t, resp, &ep)
	gauge := reg.Snapshot().Gauges[MetricNodes]
	if sn.Res.Stats.Nodes != 2 || gauge != 2 || ep.Nodes != 2 {
		t.Fatalf("live nodes: Stats.Nodes %d, %s %g, /v1/epoch %d; want 2 each", sn.Res.Stats.Nodes, MetricNodes, gauge, ep.Nodes)
	}
}
