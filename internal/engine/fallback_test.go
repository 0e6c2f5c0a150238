package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/skyline"
)

// injectInvariantFailure swaps the engine's runtime invariant check for
// one that rejects every envelope computed over at least minDisks disks,
// simulating the degenerate configurations (cocircular centers,
// near-tangent disks) that break the skyline's assumptions under exact
// arithmetic. The original check is restored on cleanup.
func injectInvariantFailure(t *testing.T, minDisks int) {
	t.Helper()
	orig := checkInvariants
	checkInvariants = func(sl skyline.Skyline, n int) error {
		if n >= minDisks {
			return fmt.Errorf("injected degeneracy: %d disks", n)
		}
		return orig(sl, n)
	}
	t.Cleanup(func() { checkInvariants = orig })
}

// fallbackTestNodes is a 4-node clique plus one isolated node: every
// clique member's local set has 3 neighbor disks (4 disks total), the
// isolated node has just its own.
func fallbackTestNodes() []network.Node {
	return []network.Node{
		{ID: 0, Pos: geom.Pt(0, 0), Radius: 2},
		{ID: 1, Pos: geom.Pt(1, 0), Radius: 2},
		{ID: 2, Pos: geom.Pt(0, 1), Radius: 2},
		{ID: 3, Pos: geom.Pt(1, 1), Radius: 2},
		{ID: 4, Pos: geom.Pt(50, 50), Radius: 1},
	}
}

// TestFallbackOnInvariantViolation injects an invariant failure for every
// multi-disk local set and verifies the degeneracy-safe path end to end:
// the affected nodes get the full local set (all neighbors forward, hub
// disk kept), Stats counts the events, the engine_fallback_total metric
// rises, and one engine_fallback event per node lands in the JSONL trace.
func TestFallbackOnInvariantViolation(t *testing.T) {
	injectInvariantFailure(t, 2)

	reg := obs.NewRegistry()
	var trace bytes.Buffer
	sink := obs.NewEventSink(&trace)
	Instrument(reg, sink)
	defer Instrument(nil, nil)

	nodes := fallbackTestNodes()
	res, err := New(Config{Workers: 2}).Compute(nodes)
	if err != nil {
		t.Fatal(err)
	}

	if res.Stats.Fallbacks != 4 {
		t.Fatalf("Stats.Fallbacks = %d, want 4 (the clique nodes)", res.Stats.Fallbacks)
	}
	for u := 0; u < 4; u++ {
		if !equalSets(res.Forwarding[u], res.Neighbors[u]) {
			t.Errorf("node %d: fallback forwarding = %v, want full neighbor set %v",
				u, res.Forwarding[u], res.Neighbors[u])
		}
		if !res.HubInCover[u] {
			t.Errorf("node %d: fallback must keep the hub disk in the cover", u)
		}
	}
	if len(res.Forwarding[4]) != 0 {
		t.Errorf("isolated node got forwarding set %v, want empty", res.Forwarding[4])
	}

	snap := reg.Snapshot()
	if got := snap.Counters[MetricFallbacks]; got != 4 {
		t.Errorf("%s = %d, want 4", MetricFallbacks, got)
	}

	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	var events int
	for _, line := range strings.Split(strings.TrimSpace(trace.String()), "\n") {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if ev.Type != EventFallback {
			continue
		}
		events++
		if _, ok := ev.Fields["node"]; !ok {
			t.Errorf("fallback event missing node field: %v", ev.Fields)
		}
		cause, _ := ev.Fields["cause"].(string)
		if !strings.Contains(cause, "injected degeneracy") {
			t.Errorf("fallback event cause = %q, want the invariant error", cause)
		}
	}
	if events != 4 {
		t.Errorf("trace has %d %s events, want 4", events, EventFallback)
	}
}

// TestFallbackCountedPerPass: Update must report its own pass's fallback
// count, not an accumulated total, and recovery (the check passing again)
// must clear the counter and restore minimal covers.
func TestFallbackCountedPerPass(t *testing.T) {
	orig := checkInvariants
	failing := true
	checkInvariants = func(sl skyline.Skyline, n int) error {
		if failing && n >= 2 {
			return fmt.Errorf("injected degeneracy")
		}
		return orig(sl, n)
	}
	t.Cleanup(func() { checkInvariants = orig })

	nodes := fallbackTestNodes()
	e := New(Config{Workers: 1})
	res, err := e.Compute(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Fallbacks != 4 {
		t.Fatalf("Compute fallbacks = %d, want 4", res.Stats.Fallbacks)
	}

	// Heal the check and nudge one clique node: only the dirty
	// neighborhoods recompute, and the fresh pass must report zero
	// fallbacks while producing valid (recomputed) covers for them.
	failing = false
	moved := append([]network.Node(nil), nodes...)
	moved[0].Pos = geom.Pt(0.125, 0)
	res, err = e.Update(moved)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Fallbacks != 0 {
		t.Fatalf("Update fallbacks = %d, want 0 after recovery", res.Stats.Fallbacks)
	}
	// The recomputed nodes must now agree with a from-scratch engine.
	fresh, err := New(Config{Workers: 1}).Compute(moved)
	if err != nil {
		t.Fatal(err)
	}
	for u := range moved {
		if u == 4 { // untouched isolated node
			continue
		}
		if !equalSets(res.Forwarding[u], fresh.Forwarding[u]) {
			t.Errorf("node %d: post-recovery forwarding = %v, fresh compute = %v",
				u, res.Forwarding[u], fresh.Forwarding[u])
		}
	}
}

// TestCheckInvariantsRejectsBrokenSkylines exercises the real (uninjected)
// invariant check against hand-built violations of each class: arc-count
// blowup past the Lemma 8 bound, a gap in the breakpoint partition, and an
// uncovered ray.
func TestCheckInvariantsRejectsBrokenSkylines(t *testing.T) {
	good, err := skyline.Compute([]geom.Disk{
		{C: geom.Pt(0, 0), R: 1},
		{C: geom.Pt(0.5, 0), R: 1.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := good.CheckInvariants(2); err != nil {
		t.Fatalf("healthy skyline rejected: %v", err)
	}

	// Lemma 8 violation: 5 alternating arcs over n=1 (bound 2).
	var blown skyline.Skyline
	step := geom.TwoPi / 5
	for i := 0; i < 5; i++ {
		blown = append(blown, skyline.Arc{
			Start: float64(i) * step, End: float64(i+1) * step, Disk: i % 2,
		})
	}
	blown[len(blown)-1].End = geom.TwoPi
	if err := blown.CheckInvariants(1); err == nil {
		t.Error("arc-count violation passed CheckInvariants")
	}

	// Non-partitioning breakpoints: a gap between consecutive arcs.
	gap := skyline.Skyline{
		{Start: 0, End: 2, Disk: 0},
		{Start: 3, End: geom.TwoPi, Disk: 1},
	}
	if err := gap.CheckInvariants(2); err == nil {
		t.Error("breakpoint gap passed CheckInvariants")
	}

	// Uncovered rays: the skyline stops short of 2π.
	short := skyline.Skyline{{Start: 0, End: 3, Disk: 0}}
	if err := short.CheckInvariants(1); err == nil {
		t.Error("uncovered ray passed CheckInvariants")
	}
}
