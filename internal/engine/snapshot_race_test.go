package engine

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
)

// TestSnapshotConsistencyUnderUpdate is the epoch-snapshot contract test:
// a single writer hammers Update while reader goroutines consume published
// *Result snapshots and *View epochs through atomic pointers — the View
// side is exactly the publication pattern mldcsd serves queries with.
// Every snapshot a reader observes must be internally consistent (all
// per-node data from one pass, sane shapes, forwarding ⊆ neighbors) and
// epochs must be monotonic per reader. Run under -race this also proves
// snapshots are never written through by later passes: a View shares its
// pages with the engine until a pass copies them, so a missed copy is a
// reported race.
func TestSnapshotConsistencyUnderUpdate(t *testing.T) {
	const (
		n       = 120
		ticks   = 150
		readers = 4
	)
	rng := rand.New(rand.NewSource(7))
	nodes := make([]network.Node, n)
	for i := range nodes {
		nodes[i] = network.Node{
			ID:     i,
			Pos:    geom.Pt(rng.Float64()*6, rng.Float64()*6),
			Radius: 0.5 + rng.Float64(),
		}
	}
	e := New(Config{})
	first, err := e.Compute(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if first.Epoch != 1 {
		t.Fatalf("first Compute epoch = %d, want 1", first.Epoch)
	}

	var latest atomic.Pointer[Result]
	latest.Store(first)
	var latestView atomic.Pointer[View]
	latestView.Store(e.View())
	var stop atomic.Bool

	checkSnapshot := func(r *Result) {
		if len(r.Forwarding) != n || len(r.Neighbors) != n || len(r.HubInCover) != n {
			t.Errorf("epoch %d: slice lengths %d/%d/%d, want %d",
				r.Epoch, len(r.Forwarding), len(r.Neighbors), len(r.HubInCover), n)
			return
		}
		if r.Stats.Nodes != n {
			t.Errorf("epoch %d: Stats.Nodes = %d, want %d", r.Epoch, r.Stats.Nodes, n)
		}
		for u := 0; u < n; u++ {
			nbrs := r.Neighbors[u]
			j := 0
			for _, f := range r.Forwarding[u] {
				for j < len(nbrs) && nbrs[j] < f {
					j++
				}
				if j >= len(nbrs) || nbrs[j] != f {
					t.Errorf("epoch %d node %d: forwarder %d not a neighbor of %v",
						r.Epoch, u, f, nbrs)
					return
				}
			}
			if len(r.Forwarding[u]) == 0 && len(nbrs) > 0 {
				// A connected neighborhood always needs at least one relay
				// or the hub covering everything itself.
				if !r.HubInCover[u] {
					t.Errorf("epoch %d node %d: no forwarders, hub not in cover, %d neighbors",
						r.Epoch, u, len(nbrs))
					return
				}
			}
		}
	}

	checkView := func(v *View) {
		if v.slots() != n || v.Stats.Nodes != n {
			t.Errorf("epoch %d: view slots %d, Stats.Nodes %d, want %d", v.Epoch, v.slots(), v.Stats.Nodes, n)
			return
		}
		edges := 0
		for u := 0; u < n; u++ {
			if v.Node(u).ID != u || !(v.Node(u).Radius > 0) {
				t.Errorf("epoch %d: node %d = %+v", v.Epoch, u, v.Node(u))
				return
			}
			nbrs := v.Neighbors(u)
			edges += len(nbrs)
			j := 0
			for _, f := range v.Forwarding(u) {
				for j < len(nbrs) && nbrs[j] < f {
					j++
				}
				if j >= len(nbrs) || nbrs[j] != f {
					t.Errorf("epoch %d node %d: forwarder %d not a neighbor of %v", v.Epoch, u, f, nbrs)
					return
				}
			}
		}
		if edges != v.Stats.Edges {
			t.Errorf("epoch %d: view holds %d neighbor entries, Stats.Edges = %d", v.Epoch, edges, v.Stats.Edges)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEpoch uint64
			for !stop.Load() {
				v := latestView.Load()
				if v.Epoch < lastEpoch {
					t.Errorf("view epoch went backwards: %d after %d", v.Epoch, lastEpoch)
					return
				}
				lastEpoch = v.Epoch
				checkView(v)
			}
		}()
	}
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEpoch uint64
			for !stop.Load() {
				r := latest.Load()
				if r.Epoch < lastEpoch {
					t.Errorf("epoch went backwards: %d after %d", r.Epoch, lastEpoch)
					return
				}
				lastEpoch = r.Epoch
				checkSnapshot(r)
			}
		}()
	}

	// Writer: random small moves plus occasional radius changes, the same
	// churn the mobility ingest path produces.
	wrng := rand.New(rand.NewSource(8))
	for tick := 0; tick < ticks; tick++ {
		moved := 1 + wrng.Intn(8)
		for k := 0; k < moved; k++ {
			u := wrng.Intn(n)
			nodes[u].Pos.X += (wrng.Float64() - 0.5) * 0.4
			nodes[u].Pos.Y += (wrng.Float64() - 0.5) * 0.4
			if wrng.Intn(4) == 0 {
				nodes[u].Radius = 0.5 + wrng.Float64()
			}
		}
		res, err := e.Update(nodes)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(tick) + 2; res.Epoch != want {
			t.Fatalf("tick %d: epoch = %d, want %d", tick, res.Epoch, want)
		}
		latest.Store(res)
		latestView.Store(e.View())
	}
	stop.Store(true)
	wg.Wait()

	// The engine's own view agrees with the last published snapshot.
	if got := e.View().Result().Epoch; got != uint64(ticks)+1 {
		t.Fatalf("final epoch = %d, want %d", got, ticks+1)
	}
}

// TestMutationHookDisabled pins the production build: the mldcsmutate tag
// must never leak into a normal compile.
func TestMutationHookDisabled(t *testing.T) {
	if mutationEnabled {
		t.Fatal("mutationEnabled is true in a default build; the mldcsmutate tag must not be set outside mutation-sensitivity runs")
	}
	fwd := []int{1, 2, 3}
	if got := mutateForwarding(fwd, 5); len(got) != 3 {
		t.Fatalf("mutateForwarding changed a forwarding set in a default build: %v", got)
	}
}
