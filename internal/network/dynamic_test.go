package network

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// The differential oracle: after any sequence of moves, the incrementally
// maintained graph must be identical to a fresh Build over the current
// positions.
func TestMoveNodeMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 10; trial++ {
		n := 30 + rng.Intn(80)
		nodes := make([]Node, n)
		for i := range nodes {
			nodes[i] = Node{
				ID:     i,
				Pos:    geom.Pt(rng.Float64()*12.5, rng.Float64()*12.5),
				Radius: 1 + rng.Float64(),
			}
		}
		for _, model := range []LinkModel{Bidirectional, Unidirectional} {
			g, err := Build(nodes, model)
			if err != nil {
				t.Fatal(err)
			}
			current := append([]Node(nil), nodes...)
			for step := 0; step < 50; step++ {
				u := rng.Intn(n)
				pos := geom.Pt(rng.Float64()*12.5, rng.Float64()*12.5)
				if err := g.MoveNode(u, pos); err != nil {
					t.Fatal(err)
				}
				current[u].Pos = pos
			}
			fresh, err := Build(current, model)
			if err != nil {
				t.Fatal(err)
			}
			for u := 0; u < n; u++ {
				if !equalIntSlices(g.Neighbors(u), fresh.Neighbors(u)) {
					t.Fatalf("trial %d %v: node %d out-neighbors diverged:\n inc %v\n new %v",
						trial, model, u, g.Neighbors(u), fresh.Neighbors(u))
				}
				if !equalIntSlices(g.inNeighbors(u), fresh.inNeighbors(u)) {
					t.Fatalf("trial %d %v: node %d in-neighbors diverged:\n inc %v\n new %v",
						trial, model, u, g.inNeighbors(u), fresh.inNeighbors(u))
				}
				if g.Node(u).Pos != fresh.Node(u).Pos {
					t.Fatalf("trial %d: node %d position diverged", trial, u)
				}
			}
		}
	}
}

func TestMoveNodeValidation(t *testing.T) {
	nodes := []Node{{ID: 0, Pos: geom.Pt(0, 0), Radius: 1}}
	g, err := Build(nodes, Bidirectional)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.MoveNode(-1, geom.Pt(1, 1)); err == nil {
		t.Error("negative index must fail")
	}
	if err := g.MoveNode(1, geom.Pt(1, 1)); err == nil {
		t.Error("out-of-range index must fail")
	}
	if err := g.MoveNode(0, geom.Pt(1, 1)); err != nil {
		t.Errorf("valid move failed: %v", err)
	}
}

func TestMoveNodeDoesNotMutateCaller(t *testing.T) {
	nodes := []Node{
		{ID: 0, Pos: geom.Pt(0, 0), Radius: 1},
		{ID: 1, Pos: geom.Pt(0.5, 0), Radius: 1},
	}
	g, err := Build(nodes, Bidirectional)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.MoveNode(0, geom.Pt(5, 5)); err != nil {
		t.Fatal(err)
	}
	if nodes[0].Pos != geom.Pt(0, 0) {
		t.Error("MoveNode must not mutate the caller's node slice")
	}
	if g.Node(0).Pos != geom.Pt(5, 5) {
		t.Error("graph position must be updated")
	}
	if g.IsNeighbor(0, 1) {
		t.Error("link must be dropped after moving out of range")
	}
}

func TestSortedHelpers(t *testing.T) {
	s := []int{1, 3, 5}
	s = insertSorted(s, 4)
	s = insertSorted(s, 0)
	s = insertSorted(s, 6)
	s = insertSorted(s, 4) // duplicate: no-op
	want := []int{0, 1, 3, 4, 5, 6}
	if len(s) != len(want) {
		t.Fatalf("insertSorted = %v", s)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("insertSorted = %v, want %v", s, want)
		}
	}
	s = removeSorted(s, 3)
	s = removeSorted(s, 99) // absent: no-op
	if len(s) != 5 || s[2] != 4 {
		t.Fatalf("removeSorted = %v", s)
	}
}
