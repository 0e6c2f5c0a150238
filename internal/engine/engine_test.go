package engine

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/deploy"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/obs"
)

func TestEngineEmptyNetwork(t *testing.T) {
	res, err := New(Config{}).Compute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Forwarding) != 0 || len(res.Neighbors) != 0 || res.Stats.Nodes != 0 {
		t.Fatalf("empty network: got %+v", res.Stats)
	}
}

func TestEngineSingleAndIsolatedNodes(t *testing.T) {
	// Three nodes too far apart to hear each other: every forwarding set is
	// empty and every hub covers itself.
	nodes := []network.Node{
		{ID: 0, Pos: geom.Pt(0, 0), Radius: 1},
		{ID: 1, Pos: geom.Pt(10, 0), Radius: 1},
		{ID: 2, Pos: geom.Pt(0, 10), Radius: 1},
	}
	res, err := New(Config{}).Compute(nodes)
	if err != nil {
		t.Fatal(err)
	}
	for u := range nodes {
		if len(res.Forwarding[u]) != 0 || len(res.Neighbors[u]) != 0 {
			t.Fatalf("isolated node %d: fwd=%v nbrs=%v", u, res.Forwarding[u], res.Neighbors[u])
		}
		if !res.HubInCover[u] {
			t.Fatalf("isolated node %d must cover itself", u)
		}
	}
}

func TestEngineValidation(t *testing.T) {
	e := New(Config{})
	if _, err := e.Compute([]network.Node{{ID: 5, Pos: geom.Pt(0, 0), Radius: 1}}); err == nil ||
		!strings.Contains(err.Error(), "dense") {
		t.Fatalf("sparse IDs: err = %v", err)
	}
	if _, err := e.Compute([]network.Node{{ID: 0, Pos: geom.Pt(0, 0), Radius: 0}}); err == nil ||
		!strings.Contains(err.Error(), "radius") {
		t.Fatalf("zero radius: err = %v", err)
	}
	if _, err := New(Config{}).Update(nil); err == nil ||
		!strings.Contains(err.Error(), "before Compute") {
		t.Fatalf("Update before Compute: err = %v", err)
	}
}

// TestEngineRelabelInvariance: relabeling reorders every local set, which
// by Theorem 3 leaves each cover unchanged away from ties within
// geom.RhoEps (a random deployment has none), so recomputing a relabeled
// copy of the same network through a persistent engine yields exactly the
// permuted forwarding sets and hub flags.
func TestEngineRelabelInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	nodes, err := deploy.Generate(deploy.PaperConfig(deploy.Heterogeneous, 8), rng)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{})
	first, err := e.Compute(nodes)
	if err != nil {
		t.Fatal(err)
	}
	// perm[i] = old index now labeled i; inv maps old → new labels.
	perm := rng.Perm(len(nodes))
	inv := make([]int, len(nodes))
	for newID, oldID := range perm {
		inv[oldID] = newID
	}
	relabeled := make([]network.Node, len(nodes))
	for newID, oldID := range perm {
		relabeled[newID] = network.Node{ID: newID, Pos: nodes[oldID].Pos, Radius: nodes[oldID].Radius}
	}
	second, err := e.Compute(relabeled)
	if err != nil {
		t.Fatal(err)
	}
	for newID, oldID := range perm {
		want := make([]int, len(first.Forwarding[oldID]))
		for i, v := range first.Forwarding[oldID] {
			want[i] = inv[v]
		}
		sort.Ints(want)
		if !equalSets(second.Forwarding[newID], want) {
			t.Fatalf("node %d (was %d): forwarding = %v, want %v",
				newID, oldID, second.Forwarding[newID], want)
		}
		if first.HubInCover[oldID] != second.HubInCover[newID] {
			t.Fatalf("node %d (was %d): hubInCover changed under relabeling", newID, oldID)
		}
	}
}

// TestDeprecatedCacheFieldsInert pins the skyline cache's leftover API:
// Config.Cache is ignored and Stats.CacheHits/CacheMisses always read
// zero, even on a zero-jitter grid, where nearly every neighborhood is
// bit-identical to another and a cache would hit on almost every node.
// Delete it together with the three deprecated fields.
func TestDeprecatedCacheFieldsInert(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := deploy.PaperConfig(deploy.Homogeneous, 12)
	cfg.SourceAtCenter = false
	nodes, err := deploy.GeneratePerturbedGrid(cfg, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	got, err := New(Config{Workers: 1, Cache: true}).Compute(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.CacheHits != 0 || got.Stats.CacheMisses != 0 {
		t.Fatalf("Cache: true reported %d hits / %d misses, want 0/0",
			got.Stats.CacheHits, got.Stats.CacheMisses)
	}
	want, err := New(Config{Workers: 1}).Compute(nodes)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "Cache: true", got, want)
}

// TestEngineSnapshotIsolation: a snapshot taken before an Update must not
// change when the engine recomputes moved nodes.
func TestEngineSnapshotIsolation(t *testing.T) {
	nodes := []network.Node{
		{ID: 0, Pos: geom.Pt(0, 0), Radius: 2},
		{ID: 1, Pos: geom.Pt(1, 0), Radius: 2},
		{ID: 2, Pos: geom.Pt(0, 1), Radius: 2},
	}
	e := New(Config{})
	before, err := e.Compute(nodes)
	if err != nil {
		t.Fatal(err)
	}
	wantFwd := append([]int(nil), before.Forwarding[0]...)
	wantNbr := append([]int(nil), before.Neighbors[0]...)

	moved := append([]network.Node(nil), nodes...)
	moved[1].Pos = geom.Pt(50, 50) // leaves everyone's range
	if _, err := e.Update(moved); err != nil {
		t.Fatal(err)
	}
	if !equalSets(before.Forwarding[0], wantFwd) || !equalSets(before.Neighbors[0], wantNbr) {
		t.Fatalf("snapshot mutated by Update: fwd=%v nbrs=%v", before.Forwarding[0], before.Neighbors[0])
	}
	after := e.Result()
	if len(after.Neighbors[0]) != 1 || after.Neighbors[0][0] != 2 {
		t.Fatalf("after move, node 0 neighbors = %v, want [2]", after.Neighbors[0])
	}
}

// TestEngineInstrumentation checks the obs wiring end to end: Compute and
// Update book their passes, throughput gauges land in the registry, and
// uninstalling the registry stops collection.
func TestEngineInstrumentation(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg, nil)
	defer Instrument(nil, nil)

	rng := rand.New(rand.NewSource(3))
	nodes, err := deploy.Generate(deploy.PaperConfig(deploy.Homogeneous, 6), rng)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{})
	if _, err := e.Compute(nodes); err != nil {
		t.Fatal(err)
	}
	moved := append([]network.Node(nil), nodes...)
	moved[1].Pos = moved[1].Pos.Add(geom.Pt(0.25, 0))
	if _, err := e.Update(moved); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters[MetricComputeTotal]; got != 1 {
		t.Fatalf("%s = %d, want 1", MetricComputeTotal, got)
	}
	if got := snap.Counters[MetricUpdateTotal]; got != 1 {
		t.Fatalf("%s = %d, want 1", MetricUpdateTotal, got)
	}
	if got := snap.Counters[MetricNodesTotal]; got != int64(len(nodes)) {
		t.Fatalf("%s = %d, want %d", MetricNodesTotal, got, len(nodes))
	}
	if got := snap.Gauges[MetricNodesPerSec]; got <= 0 {
		t.Fatalf("%s = %g, want > 0", MetricNodesPerSec, got)
	}
	if frac := snap.Gauges[MetricDirtyFraction]; frac <= 0 || frac > 1 {
		t.Fatalf("%s = %g, want in (0, 1]", MetricDirtyFraction, frac)
	}
	if got := snap.Timers[MetricUpdateSeconds].Count; got != 1 {
		t.Fatalf("%s count = %d, want 1", MetricUpdateSeconds, got)
	}
}
