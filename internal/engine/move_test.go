package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
)

// TestUpdateReportsLiveCellCount is the Stats.Cells regression: Update and
// Move used to copy the occupied-cell count from the last Compute, but a
// move can create and empty grid cells. Three nodes share one cell; moving
// one into an empty cell must report two cells, as a fresh Compute does.
func TestUpdateReportsLiveCellCount(t *testing.T) {
	nodes := []network.Node{
		{ID: 0, Pos: geom.Pt(0.1, 0.1), Radius: 1},
		{ID: 1, Pos: geom.Pt(0.2, 0.3), Radius: 1},
		{ID: 2, Pos: geom.Pt(0.4, 0.2), Radius: 1},
	}
	e := New(Config{Workers: 1})
	first, err := e.Compute(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Cells != 1 {
		t.Fatalf("Compute cells = %d, want 1", first.Stats.Cells)
	}
	nodes[2].Pos = geom.Pt(5.5, 5.5)
	got, err := e.Update(nodes)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(Config{Workers: 1}).Compute(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Cells != 2 || got.Stats.Cells != want.Stats.Cells {
		t.Fatalf("Update cells = %d, fresh Compute cells = %d, want 2", got.Stats.Cells, want.Stats.Cells)
	}
	// Moving it back empties the new cell again.
	v, err := e.Move([]network.Node{{ID: 2, Pos: geom.Pt(0.4, 0.2), Radius: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if v.Stats.Cells != 1 {
		t.Fatalf("Move back: cells = %d, want 1", v.Stats.Cells)
	}
}

// TestMoveValidation: a bad entry fails the whole Move before any state
// changes, so the engine still answers for the previous epoch.
func TestMoveValidation(t *testing.T) {
	if _, err := New(Config{}).Move(nil); err == nil || !strings.Contains(err.Error(), "before Compute") {
		t.Fatalf("Move before Compute: err = %v", err)
	}
	nodes := []network.Node{
		{ID: 0, Pos: geom.Pt(0, 0), Radius: 1},
		{ID: 1, Pos: geom.Pt(0.5, 0), Radius: 1},
	}
	e := New(Config{})
	if _, err := e.Compute(nodes); err != nil {
		t.Fatal(err)
	}
	bad := [][]network.Node{
		{{ID: 0, Pos: geom.Pt(9, 9), Radius: 1}, {ID: 2, Pos: geom.Pt(0, 0), Radius: 1}},
		{{ID: 0, Pos: geom.Pt(9, 9), Radius: 1}, {ID: -1, Pos: geom.Pt(0, 0), Radius: 1}},
		{{ID: 0, Pos: geom.Pt(9, 9), Radius: 1}, {ID: 1, Pos: geom.Pt(0, 0), Radius: 0}},
	}
	for i, moved := range bad {
		if _, err := e.Move(moved); err == nil {
			t.Fatalf("case %d: Move accepted %v", i, moved)
		}
	}
	v := e.View()
	if v.Epoch != 1 || v.Node(0).Pos != nodes[0].Pos || len(v.Neighbors(0)) != 1 {
		t.Fatalf("failed Moves changed the engine: epoch %d, node 0 %+v, neighbors %v",
			v.Epoch, v.Node(0), v.Neighbors(0))
	}
}

// viewCopy is a deep copy of everything a View exposes.
type viewCopy struct {
	epoch uint64
	stats Stats
	nodes []network.Node
	nbrs  [][]int
	fwd   [][]int
	hubIn []bool
}

func copyView(v *View) viewCopy {
	c := viewCopy{epoch: v.Epoch, stats: v.Stats}
	for u := 0; u < v.Len(); u++ {
		c.nodes = append(c.nodes, v.Node(u))
		c.nbrs = append(c.nbrs, append([]int{}, v.Neighbors(u)...))
		c.fwd = append(c.fwd, append([]int{}, v.Forwarding(u)...))
		c.hubIn = append(c.hubIn, v.HubInCover(u))
	}
	return c
}

// TestMoveMatchesComputeAndViewsStayFrozen is the differential and
// immutability harness for Move and View. Random move groups — small
// slides, cross-cell jumps, radius retunes, the same node moved twice in
// one group (the last entry wins), entries equal to the current state, and
// empty groups — drive Move at one and four workers. Every View must equal
// a fresh Compute of the same nodes element for element (Stats.Cells and
// Stats.Edges included), and every earlier View must still equal its own
// deep copy taken when it was returned, after at least 50 further passes.
func TestMoveMatchesComputeAndViewsStayFrozen(t *testing.T) {
	const (
		n      = 300
		passes = 80
		frozen = 50
	)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			nodes, side, err := benchDeployment(n, 21)
			if err != nil {
				t.Fatal(err)
			}
			// The fresh Compute must grid with the engine's cell size (the
			// initial maximum radius) for Stats.Cells to be comparable.
			cell := 0.0
			for _, nd := range nodes {
				cell = max(cell, nd.Radius)
			}
			rng := rand.New(rand.NewSource(int64(workers)))
			e := New(Config{Workers: workers, Cache: true})
			if _, err := e.Compute(nodes); err != nil {
				t.Fatal(err)
			}
			cur := append([]network.Node(nil), nodes...)
			var views []*View
			var copies []viewCopy
			repaired := 0
			for pass := 0; pass < passes; pass++ {
				var group []network.Node
				if pass%10 != 9 { // every tenth group is empty
					for k := 1 + rng.Intn(6); k > 0; k-- {
						u := rng.Intn(n)
						nd := cur[u]
						switch rng.Intn(5) {
						case 0: // jump anywhere: crosses cells
							nd.Pos = geom.Pt(rng.Float64()*side, rng.Float64()*side)
						case 1: // retune the radius
							nd.Radius *= 0.8 + 0.4*rng.Float64()
						case 2: // unchanged entry
						default: // small slide, the repairable case
							nd.Pos.X += (rng.Float64()*2 - 1) * 0.02 * nd.Radius
							nd.Pos.Y += (rng.Float64()*2 - 1) * 0.02 * nd.Radius
						}
						group = append(group, nd)
						cur[u] = nd
						if rng.Intn(4) == 0 { // the same node again, later entry wins
							nd.Pos.X += 0.01 * nd.Radius
							group = append(group, nd)
							cur[u] = nd
						}
					}
				}
				v, err := e.Move(group)
				if err != nil {
					t.Fatalf("pass %d: %v", pass, err)
				}
				want, err := New(Config{Workers: 1, CellSize: cell}).Compute(cur)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("pass %d", pass)
				requireViewEqual(t, label, v, cur, want)
				if v.Epoch != uint64(pass)+2 {
					t.Fatalf("%s: epoch %d, want %d", label, v.Epoch, pass+2)
				}
				repaired += v.Stats.Repaired
				views = append(views, v)
				copies = append(copies, copyView(v))
			}
			if repaired == 0 {
				t.Fatal("no node was repaired; the stream is not exercising the kinetic path")
			}
			for i := 0; i+frozen < len(views); i++ {
				if got := copyView(views[i]); !reflect.DeepEqual(got, copies[i]) {
					t.Fatalf("the View of pass %d changed after %d further passes", i, len(views)-1-i)
				}
			}
		})
	}
}

// requireViewEqual asserts v matches nodes and a fresh Compute of them.
func requireViewEqual(t *testing.T, label string, v *View, nodes []network.Node, want *Result) {
	t.Helper()
	if v.Len() != len(nodes) {
		t.Fatalf("%s: Len %d, want %d", label, v.Len(), len(nodes))
	}
	for u := range nodes {
		if v.Node(u) != nodes[u] {
			t.Fatalf("%s: node %d = %+v, want %+v", label, u, v.Node(u), nodes[u])
		}
		if !equalSets(v.Neighbors(u), want.Neighbors[u]) {
			t.Fatalf("%s: node %d neighbors = %v, want %v", label, u, v.Neighbors(u), want.Neighbors[u])
		}
		if !equalSets(v.Forwarding(u), want.Forwarding[u]) {
			t.Fatalf("%s: node %d forwarding = %v, want %v", label, u, v.Forwarding(u), want.Forwarding[u])
		}
		if v.HubInCover(u) != want.HubInCover[u] {
			t.Fatalf("%s: node %d hubInCover = %v, want %v", label, u, v.HubInCover(u), want.HubInCover[u])
		}
	}
	if v.Stats.Nodes != want.Stats.Nodes || v.Stats.Edges != want.Stats.Edges || v.Stats.Cells != want.Stats.Cells {
		t.Fatalf("%s: nodes/edges/cells = %d/%d/%d, fresh Compute %d/%d/%d", label,
			v.Stats.Nodes, v.Stats.Edges, v.Stats.Cells, want.Stats.Nodes, want.Stats.Edges, want.Stats.Cells)
	}
}
