package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/deploy"
	"repro/internal/mobility"
	"repro/internal/network"
)

// TestEngineIncrementalMatchesFresh drives the engine with random-waypoint
// mobility and checks, at every step, that the incremental Update produces
// exactly the state a from-scratch Compute would — forwarding sets, hub
// flags, and neighborhoods — while only recomputing the dirtied subset.
func TestEngineIncrementalMatchesFresh(t *testing.T) {
	for _, ecfg := range []Config{{Workers: 1}, {Workers: 4}} {
		rng := rand.New(rand.NewSource(11))
		cfg := deploy.PaperConfig(deploy.Heterogeneous, 8)
		nodes, err := deploy.Generate(cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		model, err := mobility.NewModel(mobility.WaypointConfig{
			Side: cfg.Side, SpeedMin: 0.5, SpeedMax: 1.5, PauseMax: 0.5,
		}, nodes, rng)
		if err != nil {
			t.Fatal(err)
		}

		inc := New(ecfg)
		if _, err := inc.Compute(nodes); err != nil {
			t.Fatal(err)
		}
		for step := 1; step <= 5; step++ {
			model.Step(0.2)
			cur := model.Nodes()
			got, err := inc.Update(cur)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			want, err := New(ecfg).Compute(cur)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			label := fmt.Sprintf("step %d workers=%d", step, ecfg.Workers)
			for u := range cur {
				if !equalSets(got.Neighbors[u], want.Neighbors[u]) {
					t.Fatalf("%s: node %d neighbors = %v, want %v", label, u, got.Neighbors[u], want.Neighbors[u])
				}
				if !equalSets(got.Forwarding[u], want.Forwarding[u]) {
					t.Fatalf("%s: node %d forwarding = %v, want %v", label, u, got.Forwarding[u], want.Forwarding[u])
				}
				if got.HubInCover[u] != want.HubInCover[u] {
					t.Fatalf("%s: node %d hubInCover mismatch", label, u)
				}
			}
			if got.Stats.Moved == 0 {
				t.Fatalf("%s: expected movement under random waypoint", label)
			}
			if got.Stats.Dirty > len(cur) {
				t.Fatalf("%s: dirty %d exceeds node count %d", label, got.Stats.Dirty, len(cur))
			}
		}
	}
}

// TestEngineIncrementalNoop: handing Update the unchanged node slice
// recomputes nothing.
func TestEngineIncrementalNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nodes, err := deploy.Generate(deploy.PaperConfig(deploy.Homogeneous, 6), rng)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{})
	before, err := e.Compute(nodes)
	if err != nil {
		t.Fatal(err)
	}
	after, err := e.Update(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if after.Stats.Moved != 0 || after.Stats.Dirty != 0 {
		t.Fatalf("no-op update: moved=%d dirty=%d, want 0/0", after.Stats.Moved, after.Stats.Dirty)
	}
	for u := range nodes {
		if !equalSets(before.Forwarding[u], after.Forwarding[u]) {
			t.Fatalf("no-op update changed node %d forwarding", u)
		}
	}
}

// TestEngineIncrementalRadiusChange: Update must also react to radius
// changes (power control), not just movement.
func TestEngineIncrementalRadiusChange(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	nodes, err := deploy.Generate(deploy.PaperConfig(deploy.Heterogeneous, 8), rng)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Workers: 4})
	if _, err := e.Compute(nodes); err != nil {
		t.Fatal(err)
	}
	changed := append([]network.Node(nil), nodes...)
	changed[3].Radius = changed[3].Radius * 1.5
	changed[7].Radius = changed[7].Radius * 0.75
	got, err := e.Update(changed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(Config{Workers: 4}).Compute(changed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Moved != 2 {
		t.Fatalf("moved = %d, want 2", got.Stats.Moved)
	}
	for u := range changed {
		if !equalSets(got.Forwarding[u], want.Forwarding[u]) {
			t.Fatalf("node %d forwarding = %v, want %v", u, got.Forwarding[u], want.Forwarding[u])
		}
		if !equalSets(got.Neighbors[u], want.Neighbors[u]) {
			t.Fatalf("node %d neighbors = %v, want %v", u, got.Neighbors[u], want.Neighbors[u])
		}
	}
}
