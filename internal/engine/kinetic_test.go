package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
)

// smallMoveStep displaces count random nodes of cur in place by at most
// frac of their own radius — the pure-mobility regime the repair path is
// built for (no node teleports across its whole neighborhood).
func smallMoveStep(rng *rand.Rand, cur []network.Node, count int, frac float64) {
	for i := 0; i < count; i++ {
		u := rng.Intn(len(cur))
		step := frac * cur[u].Radius
		cur[u].Pos.X += (rng.Float64()*2 - 1) * step
		cur[u].Pos.Y += (rng.Float64()*2 - 1) * step
	}
}

// requireSameResult asserts Update's snapshot is element-identical to a
// from-scratch Compute of the same node slice.
func requireSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	for u := range got.Forwarding {
		if !equalSets(got.Neighbors[u], want.Neighbors[u]) {
			t.Fatalf("%s: node %d neighbors = %v, want %v", label, u, got.Neighbors[u], want.Neighbors[u])
		}
		if !equalSets(got.Forwarding[u], want.Forwarding[u]) {
			t.Fatalf("%s: node %d forwarding = %v, want %v", label, u, got.Forwarding[u], want.Forwarding[u])
		}
		if got.HubInCover[u] != want.HubInCover[u] {
			t.Fatalf("%s: node %d hubInCover = %v, want %v", label, u, got.HubInCover[u], want.HubInCover[u])
		}
	}
}

// TestEngineUpdateRepairMatchesFresh is the end-to-end differential for the
// kinetic repair path: random subsets of nodes drift each tick, so most
// dirty nodes are repair candidates (they did not move, a neighbor did).
// Every tick must match a from-scratch Compute exactly, and the repair
// path must actually fire — a silent everything-fell-back-to-recompute
// regression fails the Repaired check.
//
// The first regime is the one repair is built for: 1% of the nodes slide
// by at most 2% of their radius. The others move n/20 to n/8 nodes by 5–20%
// of their radius, so a repaired node often has several changed neighbors
// in one pass. That is where the repair's rebuilt local set must give every
// changed neighbor its pre-pass disk: with two moved neighbors m1 and m2
// and a disk x that m2's old disk hid, a rebuild at post-pass positions
// lets m1's surgery hand part of m2's old arcs to m1, and x never comes
// back. Rebuilding at post-pass positions diverges from a fresh Compute
// in about half of these regimes.
func TestEngineUpdateRepairMatchesFresh(t *testing.T) {
	const n = 400
	nodes, _, err := benchDeployment(n, 13)
	if err != nil {
		t.Fatal(err)
	}
	type regime struct {
		seed          int64
		ticks, movers int
		frac          float64
		cfgs          []Config
	}
	regimes := []regime{{seed: 77, ticks: 6, movers: 1 + n/100, frac: 0.02, cfgs: engineVariants()}}
	for seed := int64(1); seed <= 5; seed++ {
		for _, frac := range []float64{0.05, 0.1, 0.2} {
			for _, movers := range []int{n / 20, n / 12, n / 8} {
				// The worker count only changes which worker repairs which
				// node, which the first regime and the pool tests pin, so
				// these regimes run on one worker.
				regimes = append(regimes, regime{seed: seed, ticks: 10, movers: movers, frac: frac,
					cfgs: []Config{{Workers: 1}}})
			}
		}
	}
	for _, rg := range regimes {
		for _, ecfg := range rg.cfgs {
			rng := rand.New(rand.NewSource(rg.seed))
			e := New(ecfg)
			if _, err := e.Compute(nodes); err != nil {
				t.Fatal(err)
			}
			cur := append([]network.Node(nil), nodes...)
			totalRepaired := 0
			for step := 1; step <= rg.ticks; step++ {
				smallMoveStep(rng, cur, rg.movers, rg.frac)
				got, err := e.Update(cur)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				want, err := New(ecfg).Compute(cur)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				label := fmt.Sprintf("seed %d movers %d frac %g step %d workers=%d",
					rg.seed, rg.movers, rg.frac, step, ecfg.Workers)
				requireSameResult(t, label, got, want)
				if got.Stats.Repaired+got.Stats.Recomputed != got.Stats.Dirty {
					t.Fatalf("%s: repaired %d + recomputed %d != dirty %d",
						label, got.Stats.Repaired, got.Stats.Recomputed, got.Stats.Dirty)
				}
				if got.Stats.RepairFallbacks > got.Stats.Recomputed {
					t.Fatalf("%s: repair fallbacks %d exceed recomputes %d",
						label, got.Stats.RepairFallbacks, got.Stats.Recomputed)
				}
				totalRepaired += got.Stats.Repaired
			}
			if totalRepaired == 0 {
				t.Errorf("seed %d movers %d frac %g workers=%d: repair path never fired",
					rg.seed, rg.movers, rg.frac, ecfg.Workers)
			}
		}
	}
}

// TestEngineUpdateDisableRepair: the repair-off baseline must recompute every
// dirty node and still agree with a fresh Compute.
func TestEngineUpdateDisableRepair(t *testing.T) {
	nodes, _, err := benchDeployment(200, 17)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(78))
	e := New(Config{Workers: 4, disableRepair: true})
	if _, err := e.Compute(nodes); err != nil {
		t.Fatal(err)
	}
	cur := append([]network.Node(nil), nodes...)
	for step := 1; step <= 3; step++ {
		smallMoveStep(rng, cur, 3, 0.02)
		got, err := e.Update(cur)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(Config{Workers: 4}).Compute(cur)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, fmt.Sprintf("disable-repair step %d", step), got, want)
		if got.Stats.Repaired != 0 {
			t.Fatalf("step %d: disableRepair engine repaired %d nodes", step, got.Stats.Repaired)
		}
		if got.Stats.Recomputed != got.Stats.Dirty {
			t.Fatalf("step %d: recomputed %d != dirty %d", step, got.Stats.Recomputed, got.Stats.Dirty)
		}
	}
}

// TestEngineUpdateAsymmetricRadiiSlide is the satellite regression for the
// old-neighbor dirty marking audit: a large-radius node slides away from
// (and back toward) a small-radius node. The link is bidirectional, so it
// lives and dies by the *small* node's reach; when the big node moves, the
// small node's grid query still sees it (it is far inside the big node's
// radius) but the reverse-reach flips. Every transition must leave Update
// element-identical to a fresh Compute — a dirty-marking bug that consults
// only one side of the asymmetric link diverges here.
func TestEngineUpdateAsymmetricRadiiSlide(t *testing.T) {
	base := []network.Node{
		{ID: 0, Pos: geom.Pt(0, 0), Radius: 10},
		{ID: 1, Pos: geom.Pt(0.9, 0), Radius: 1},
		{ID: 2, Pos: geom.Pt(0, 0.8), Radius: 1.2},
		{ID: 3, Pos: geom.Pt(6, 6), Radius: 2},
		{ID: 4, Pos: geom.Pt(6.5, 6.2), Radius: 1.5},
	}
	// The big node slides right in small steps: past x=0.1 the 0↔1 link
	// dies (node 1 can no longer reach back), later it returns. Node 1
	// never moves, so its forwarding set only stays correct if the marking
	// logic dirties it from node 0's movement — in both directions.
	slides := []float64{0, 0.05, 0.15, 0.3, 1.2, 0.3, 0.05, 0}
	for _, ecfg := range engineVariants() {
		e := New(ecfg)
		cur := append([]network.Node(nil), base...)
		if _, err := e.Compute(cur); err != nil {
			t.Fatal(err)
		}
		for step, dx := range slides {
			cur[0].Pos = geom.Pt(dx, 0)
			got, err := e.Update(cur)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			want, err := New(ecfg).Compute(cur)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			label := fmt.Sprintf("slide step %d dx=%g workers=%d", step, dx, ecfg.Workers)
			requireSameResult(t, label, got, want)
		}
		// Mirror image: the small node slides out of its own reach while
		// the big node stands still.
		for step, dx := range []float64{0.9, 0.99, 1.05, 2.5, 1.05, 0.9} {
			cur[1].Pos = geom.Pt(dx, 0)
			got, err := e.Update(cur)
			if err != nil {
				t.Fatalf("small-slide step %d: %v", step, err)
			}
			want, err := New(ecfg).Compute(cur)
			if err != nil {
				t.Fatalf("small-slide step %d: %v", step, err)
			}
			label := fmt.Sprintf("small-slide step %d dx=%g workers=%d", step, dx, ecfg.Workers)
			requireSameResult(t, label, got, want)
		}
	}
}

// Steady-state repair — warm kinetic state, warm worker scratch, a
// neighbor nudged between ticks — must not allocate: the whole point of
// the surgery is patching cached state in place.
func TestUpdateNodeRepairSteadyStateAllocs(t *testing.T) {
	nodes, _, err := benchDeployment(300, 7)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Workers: 1})
	if _, err := e.Compute(nodes); err != nil {
		t.Fatal(err)
	}
	// Pick a node with neighbors and one of its neighbors to wiggle.
	hub := -1
	for u := range nodes {
		if len(e.out.nbrs(u)) >= 3 {
			hub = u
			break
		}
	}
	if hub < 0 {
		t.Fatal("no node with enough neighbors")
	}
	mover := e.out.nbrs(hub)[0]
	// Both pages are written below; make them private to the engine once,
	// as a pass would, so the published View of the Compute stays intact.
	e.out.own(mover)
	e.out.own(hub)
	movedMark := make([]bool, len(nodes))
	movedMark[mover] = true
	// The mover is the hub's one candidate; its pre-pass state goes where
	// Apply would put it.
	e.updPrev = make([]Delta, 1)
	e.updCand = []uint64{candidate(hub, 0)}
	sc := &scratch{}
	wiggle := func() {
		e.updPrev[0] = e.out.state(mover)
		e.out.node(mover).Pos.X += 1e-9 // tiny slide: always a repairable diff
		e.updateNode(hub, sc, movedMark)
	}
	for i := 0; i < 5; i++ {
		wiggle() // warm-up: grow kin + scratch buffers
	}
	before := e.repaired.Load()
	allocs := testing.AllocsPerRun(10, wiggle)
	if e.repaired.Load() == before {
		t.Fatal("warm repair fell back to recompute; alloc measurement is not exercising the repair path")
	}
	if allocs != 0 {
		t.Errorf("steady-state repair allocated %.1f objects/run, want 0", allocs)
	}
}
