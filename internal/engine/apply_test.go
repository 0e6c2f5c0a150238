package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/spatial"
)

// slots returns v's slot range: accessors take 0 ≤ u < slots().
func (v *View) slots() int { return v.n }

// TestUpdateReportsLiveCellCount is the Stats.Cells regression: Update and
// the incremental pass used to copy the occupied-cell count from the last
// Compute, but a move can create and empty grid cells. Three nodes share
// one cell; moving one into an empty cell must report two cells, as a
// fresh Compute does.
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
	v, err := e.Apply([]Delta{{Slot: 2, Key: 2, Pos: geom.Pt(0.4, 0.2), Radius: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if v.Stats.Cells != 1 {
		t.Fatalf("Apply back: cells = %d, want 1", v.Stats.Cells)
	}
}

// TestApplyValidation: a bad entry fails the whole Apply before any state
// changes, so the engine still answers for the previous epoch.
func TestApplyValidation(t *testing.T) {
	nodes := []network.Node{
		{ID: 0, Pos: geom.Pt(0, 0), Radius: 1},
		{ID: 1, Pos: geom.Pt(0.5, 0), Radius: 1},
	}
	e := New(Config{})
	if _, err := e.Compute(nodes); err != nil {
		t.Fatal(err)
	}
	bad := [][]Delta{
		{{Slot: 0, Pos: geom.Pt(9, 9), Radius: 1}, {Slot: 4, Pos: geom.Pt(0, 0), Radius: 1}},
		{{Slot: 0, Pos: geom.Pt(9, 9), Radius: 1}, {Slot: -1, Pos: geom.Pt(0, 0), Radius: 1}},
		{{Slot: 0, Pos: geom.Pt(9, 9), Radius: 1}, {Slot: 1, Pos: geom.Pt(0, 0), Radius: 0}},
	}
	for i, ds := range bad {
		if _, err := e.Apply(ds); err == nil {
			t.Fatalf("case %d: Apply accepted %v", i, ds)
		}
	}
	v := e.View()
	if v.Epoch != 1 || v.slots() != 2 || v.Node(0).Pos != nodes[0].Pos || len(v.Neighbors(0)) != 1 {
		t.Fatalf("failed Applies changed the engine: epoch %d, len %d, node 0 %+v, neighbors %v",
			v.Epoch, v.slots(), v.Node(0), v.Neighbors(0))
	}
}

// viewCopy is a deep copy of everything a View exposes.
type viewCopy struct {
	epoch uint64
	stats Stats
	nodes []network.Node
	keys  []int64
	nbrs  [][]int
	fwd   [][]int
	hubIn []bool
}

func copyView(v *View) viewCopy {
	c := viewCopy{epoch: v.Epoch, stats: v.Stats}
	for u := 0; u < v.slots(); u++ {
		c.nodes = append(c.nodes, v.Node(u))
		c.keys = append(c.keys, v.Key(u))
		c.nbrs = append(c.nbrs, append([]int{}, v.Neighbors(u)...))
		c.fwd = append(c.fwd, append([]int{}, v.Forwarding(u)...))
		c.hubIn = append(c.hubIn, v.HubInCover(u))
	}
	return c
}

// slotModel is the differential test's intended slot table: each present
// slot's key and disk, the freed slots (reused last-freed first, as
// mldcsd's free list does) and the disks of nodes that left.
type slotModel struct {
	rng      *rand.Rand
	side     float64
	nodes    map[int]Delta
	free     []int
	slots    int
	nextKey  int64
	departed []Delta
}

// join fills a freed slot (or a new one past the range) under a fresh key.
func (m *slotModel) join(pos geom.Point, r float64) Delta {
	s := m.slots
	if k := len(m.free); k > 0 {
		s, m.free = m.free[k-1], m.free[:k-1]
	} else {
		m.slots++
	}
	// Keys rise in steps of random size from a random start, so slot
	// order and key order disagree.
	m.nextKey += 1 + m.rng.Int63n(5)
	d := Delta{Slot: s, Key: m.nextKey, Pos: pos, Radius: r}
	m.nodes[s] = d
	return d
}

func (m *slotModel) leave(s int) Delta {
	m.departed = append(m.departed, m.nodes[s])
	delete(m.nodes, s)
	m.free = append(m.free, s)
	return Delta{Slot: s, Leave: true}
}

// pick returns a uniformly random present slot.
func (m *slotModel) pick() (int, bool) {
	if len(m.nodes) == 0 {
		return 0, false
	}
	present := make([]int, 0, len(m.nodes))
	for s := range m.nodes {
		present = append(present, s)
	}
	sort.Ints(present)
	return present[m.rng.Intn(len(present))], true
}

// group draws one Apply call: moves, radius retunes, unchanged entries and
// repeats of the movers' paths, plus joins (fresh positions, a departed
// node's exact disk, or a present node's exact disk: an exact duplicate),
// leaves, and re-keys (a leave plus a join reusing the slot with the same
// disk under a fresh key).
func (m *slotModel) group() []Delta {
	var ds []Delta
	for k := 1 + m.rng.Intn(8); k > 0; k-- {
		switch q := m.rng.Intn(12); {
		case q < 4: // move
			s, ok := m.pick()
			if !ok {
				continue
			}
			d := m.nodes[s]
			switch m.rng.Intn(4) {
			case 0:
				d.Pos = geom.Pt(m.rng.Float64()*m.side, m.rng.Float64()*m.side)
			case 1:
				d.Radius *= 0.8 + 0.4*m.rng.Float64()
			case 2: // unchanged entry
			default:
				d.Pos.X += (m.rng.Float64()*2 - 1) * 0.02 * d.Radius
				d.Pos.Y += (m.rng.Float64()*2 - 1) * 0.02 * d.Radius
			}
			m.nodes[s] = d
			ds = append(ds, d)
		case q < 7: // join
			pos := geom.Pt(m.rng.Float64()*m.side, m.rng.Float64()*m.side)
			r := 0.5 + m.rng.Float64()
			switch m.rng.Intn(4) {
			case 0:
				if len(m.departed) > 0 {
					d := m.departed[m.rng.Intn(len(m.departed))]
					pos, r = d.Pos, d.Radius
				}
			case 1:
				if s, ok := m.pick(); ok {
					pos, r = m.nodes[s].Pos, m.nodes[s].Radius
				}
			}
			ds = append(ds, m.join(pos, r))
		case q < 10: // leave
			if s, ok := m.pick(); ok {
				ds = append(ds, m.leave(s))
			}
		default: // re-key: same slot, same disk, fresh key
			if s, ok := m.pick(); ok {
				d := m.nodes[s]
				ds = append(ds, m.leave(s), m.join(d.Pos, d.Radius))
			}
		}
	}
	return ds
}

// compacted returns the present nodes as dense Compute input in ascending
// key order, with each dense index's key.
func (m *slotModel) compacted() ([]network.Node, []int64) {
	live := make([]Delta, 0, len(m.nodes))
	for _, d := range m.nodes {
		live = append(live, d)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].Key < live[j].Key })
	nodes := make([]network.Node, len(live))
	keys := make([]int64, len(live))
	for i, d := range live {
		nodes[i] = network.Node{ID: i, Pos: d.Pos, Radius: d.Radius}
		keys[i] = d.Key
	}
	return nodes, keys
}

// TestApplyMatchesComputeAndViewsStayFrozen is the differential and
// immutability harness for Apply and View. Random delta streams — moves,
// radius retunes, joins into freed and new slots (growing the range past
// its initial size), joins onto a departed or a present node's exact
// disk, leaves, re-keys, a leave plus a join reusing the slot in one
// group, and twice the network emptied and refilled — drive Apply at one
// and four workers from an engine with no grid. Every View, mapped through
// its keys, must equal a fresh Compute over the compacted live set (nodes
// in key order) element for element, Stats.Nodes/Edges/Cells included;
// and every earlier View must still equal its own deep copy after at
// least 50 further passes.
func TestApplyMatchesComputeAndViewsStayFrozen(t *testing.T) {
	const (
		n      = 200
		passes = 160
		frozen = 50
	)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			nodes, side, err := benchDeployment(n, 21)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(workers)))
			m := &slotModel{rng: rng, side: side, nodes: map[int]Delta{}, nextKey: rng.Int63n(1000)}
			var initial []Delta
			cell := 0.0
			for _, nd := range nodes {
				initial = append(initial, m.join(nd.Pos, nd.Radius))
				cell = max(cell, nd.Radius)
			}
			e := New(Config{Workers: workers})
			var views []*View
			var copies []viewCopy
			var repaired, teleports, emptied int
			for pass := 0; pass < passes; pass++ {
				var ds []Delta
				switch {
				case pass == 0:
					ds = initial
				case pass == 60 || pass == 110: // empty the network
					for s := 0; s < m.slots; s++ {
						if _, ok := m.nodes[s]; ok {
							ds = append(ds, m.leave(s))
						}
					}
				case pass%10 == 9: // an empty group
				case pass > 60 && pass < 70 || pass > 110 && pass < 120: // refill
					for k := 0; k < 30; k++ {
						ds = append(ds, m.join(geom.Pt(rng.Float64()*side, rng.Float64()*side), 0.5+rng.Float64()))
					}
				default:
					ds = m.group()
				}
				v, err := e.Apply(ds)
				if err != nil {
					t.Fatalf("pass %d: %v", pass, err)
				}
				label := fmt.Sprintf("pass %d", pass)
				requireViewMatchesModel(t, label, v, m, cell)
				if v.Epoch != uint64(pass)+1 {
					t.Fatalf("%s: epoch %d, want %d", label, v.Epoch, pass+1)
				}
				if v.Stats.Nodes == 0 {
					emptied++
				}
				teleports += countTeleports(ds)
				repaired += v.Stats.Repaired
				views = append(views, v)
				copies = append(copies, copyView(v))
			}
			if repaired == 0 || teleports == 0 || emptied < 2 || m.slots <= n {
				t.Fatalf("stream too tame: %d repaired, %d slot reuses in one group, emptied %d times, %d slots",
					repaired, teleports, emptied, m.slots)
			}
			for i := 0; i+frozen < len(views); i++ {
				if got := copyView(views[i]); !reflect.DeepEqual(got, copies[i]) {
					t.Fatalf("the View of pass %d changed after %d further passes", i, len(views)-1-i)
				}
			}
		})
	}
}

// countTeleports counts the slots that a group both empties and fills.
func countTeleports(ds []Delta) int {
	left := map[int]bool{}
	count := 0
	for _, d := range ds {
		if d.Leave {
			left[d.Slot] = true
		} else if left[d.Slot] {
			count++
			delete(left, d.Slot)
		}
	}
	return count
}

// requireViewMatchesModel asserts v holds the model's slot table and,
// mapped through its keys, equals a fresh Compute of the compacted live
// set. Neighbors, forwarding sets and edges do not depend on the grid, but
// the occupied-cell count does: v's must match the live positions gridded
// with the engine's cell size (its first bulk pass's largest radius).
func requireViewMatchesModel(t *testing.T, label string, v *View, m *slotModel, cell float64) {
	t.Helper()
	nodes, keys := m.compacted()
	want, err := New(Config{Workers: 1}).Compute(nodes)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]geom.Point, len(nodes))
	for i, nd := range nodes {
		pts[i] = nd.Pos
	}
	cells := spatial.NewGrid(pts, cell).NumCells()
	if v.slots() != m.slots {
		t.Fatalf("%s: Len %d, want %d slots", label, v.slots(), m.slots)
	}
	mapKeys := func(list []int, key func(int) int64) []int64 {
		out := make([]int64, 0, len(list))
		for _, u := range list {
			out = append(out, key(u))
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	dense := func(i int) int64 { return keys[i] }
	live := 0
	for s := 0; s < v.slots(); s++ {
		d, ok := m.nodes[s]
		nd := v.Node(s)
		if !ok {
			if nd.Radius != 0 || v.Key(s) != 0 || len(v.Neighbors(s)) != 0 || len(v.Forwarding(s)) != 0 || v.HubInCover(s) {
				t.Fatalf("%s: absent slot %d holds %+v key %d nbrs %v fwd %v", label, s, nd, v.Key(s), v.Neighbors(s), v.Forwarding(s))
			}
			continue
		}
		live++
		if nd.ID != s || nd.Pos != d.Pos || nd.Radius != d.Radius || v.Key(s) != d.Key {
			t.Fatalf("%s: slot %d = %+v key %d, want %+v", label, s, nd, v.Key(s), d)
		}
		i := sort.Search(len(keys), func(i int) bool { return keys[i] >= d.Key })
		if got, w := mapKeys(v.Neighbors(s), v.Key), mapKeys(want.Neighbors[i], dense); !reflect.DeepEqual(got, w) {
			t.Fatalf("%s: key %d neighbors = %v, want %v", label, d.Key, got, w)
		}
		if got, w := mapKeys(v.Forwarding(s), v.Key), mapKeys(want.Forwarding[i], dense); !reflect.DeepEqual(got, w) {
			t.Fatalf("%s: key %d forwarding = %v, want %v", label, d.Key, got, w)
		}
		if v.HubInCover(s) != want.HubInCover[i] {
			t.Fatalf("%s: key %d hubInCover = %v, want %v", label, d.Key, v.HubInCover(s), want.HubInCover[i])
		}
	}
	if v.Stats.Nodes != live || v.Stats.Nodes != want.Stats.Nodes || v.Stats.Edges != want.Stats.Edges || v.Stats.Cells != cells {
		t.Fatalf("%s: nodes/edges/cells = %d/%d/%d, want %d/%d/%d", label,
			v.Stats.Nodes, v.Stats.Edges, v.Stats.Cells, want.Stats.Nodes, want.Stats.Edges, cells)
	}
}

// TestApplyMembershipDirtiesOnlyNeighborhoods is the no-cliff check for
// membership: at 20k nodes, a group of 2 leaves and 2 joins (the joins
// reusing the freed slots elsewhere in the network) must dirty only the
// touched neighborhoods, under 1% of the network — where a membership
// change used to cost a full Compute, Dirty == N.
func TestApplyMembershipDirtiesOnlyNeighborhoods(t *testing.T) {
	const n = 20000
	nodes, side, err := benchDeployment(n, 5)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{})
	if _, err := e.Compute(nodes); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 5; round++ {
		a, b := rng.Intn(n), rng.Intn(n)
		for b == a {
			b = rng.Intn(n)
		}
		ds := []Delta{{Slot: a, Leave: true}, {Slot: b, Leave: true}}
		for _, s := range []int{b, a} {
			ds = append(ds, Delta{Slot: s, Key: int64(n + 2*round + len(ds)), Pos: geom.Pt(rng.Float64()*side, rng.Float64()*side), Radius: nodes[s].Radius})
		}
		v, err := e.Apply(ds)
		if err != nil {
			t.Fatal(err)
		}
		if v.Stats.Moved != 2 || v.Stats.Nodes != n || v.Stats.Dirty >= n/100 {
			t.Fatalf("round %d: moved %d, nodes %d, dirty %d; want 2 moved, %d nodes, dirty < %d",
				round, v.Stats.Moved, v.Stats.Nodes, v.Stats.Dirty, n, n/100)
		}
	}
}
