//go:build mldcsmutate

package engine

import (
	"math/rand"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"golang.org/x/tools/go/analysis"

	"repro/internal/analysis/checker"
	"repro/internal/analysis/snapshotmut"
	"repro/internal/geom"
	"repro/internal/network"
)

// forwardingConsistent is the forwarding ⊆ neighbors invariant from
// TestSnapshotConsistencyUnderUpdate's checkSnapshot, reduced to a
// predicate.
func forwardingConsistent(r *Result) bool {
	for u := range r.Forwarding {
		nbrs := r.Neighbors[u]
		j := 0
		for _, f := range r.Forwarding[u] {
			for j < len(nbrs) && nbrs[j] < f {
				j++
			}
			if j >= len(nbrs) || nbrs[j] != f {
				return false
			}
		}
	}
	return true
}

// TestSnapshotConsistencyUnderUpdateMutation extends the epoch-snapshot
// contract test to the mutation build: mutateSnapshot writes through a
// published *Result, and the same consistency predicate the reader
// goroutines run must observe the corruption. A pass here proves the
// runtime side of the contract test is sensitive to the write class
// snapshotmut forbids.
func TestSnapshotConsistencyUnderUpdateMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nodes := make([]network.Node, 60)
	for i := range nodes {
		nodes[i] = network.Node{
			ID:     i,
			Pos:    geom.Pt(rng.Float64()*4, rng.Float64()*4),
			Radius: 0.5 + rng.Float64(),
		}
	}
	e := New(Config{})
	first, err := e.Compute(nodes)
	if err != nil {
		t.Fatal(err)
	}
	var latest atomic.Pointer[Result]
	latest.Store(first)
	if !forwardingConsistent(latest.Load()) {
		t.Fatal("fresh snapshot already inconsistent; the canary scenario is broken")
	}
	if !mutateSnapshot(&latest) {
		t.Fatal("canary found no forwarding set to corrupt; grow the scenario")
	}
	if forwardingConsistent(latest.Load()) {
		t.Fatal("canary write through the published snapshot was not observable; the consistency check would miss real snapshot mutation")
	}
}

// TestSnapshotMutFlagsCanary is the static half: linting the mldcsmutate
// build of this package with snapshotmut must flag the canary write in
// mutate_snapshot_on.go at its exact line, unsuppressed. If the analyzer
// regresses — or someone quietly allows the write — this fails.
func TestSnapshotMutFlagsCanary(t *testing.T) {
	src, err := os.ReadFile("mutate_snapshot_on.go")
	if err != nil {
		t.Fatal(err)
	}
	wantLine := 0
	for i, line := range strings.Split(string(src), "\n") {
		if strings.Contains(line, "snapshotmut canary write") {
			wantLine = i + 1
			break
		}
	}
	if wantLine == 0 {
		t.Fatal("canary write marker not found in mutate_snapshot_on.go")
	}

	pkgs, err := checker.LoadTags([]string{"repro/internal/engine"}, "mldcsmutate")
	if err != nil {
		t.Fatal(err)
	}
	diags, _, err := checker.RunSuite([]*analysis.Analyzer{snapshotmut.Analyzer}, pkgs, checker.NewFactStore())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range diags {
		if d.Analyzer != snapshotmut.Name || !strings.HasSuffix(d.Position.Filename, "mutate_snapshot_on.go") {
			continue
		}
		if d.Position.Line != wantLine {
			t.Errorf("snapshotmut flagged %s, want line %d", d.Position, wantLine)
			continue
		}
		if d.Allowed {
			t.Errorf("canary diagnostic is suppressed with //mldcslint:allow; the canary must stay unsuppressed: %s", d)
			continue
		}
		found = true
	}
	if !found {
		t.Fatalf("snapshotmut did not flag the canary write at mutate_snapshot_on.go:%d; got %v", wantLine, diags)
	}
}
