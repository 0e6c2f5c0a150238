package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/deploy"
	"repro/internal/geom"
	"repro/internal/mldcs"
	"repro/internal/network"
	"repro/internal/skyline"
)

// sequentialForwarding is the pre-engine reference pipeline: build the
// disk graph, then solve every node's MLDCS independently with
// mldcs.Solve. It returns per-node forwarding sets as sorted node IDs,
// the hub-in-cover flags, and the graph for neighbor comparison.
func sequentialForwarding(t *testing.T, nodes []network.Node) ([][]int, []bool, *network.Graph) {
	t.Helper()
	g, err := network.Build(nodes, network.Bidirectional)
	if err != nil {
		t.Fatalf("network.Build: %v", err)
	}
	fwd := make([][]int, g.Len())
	hubIn := make([]bool, g.Len())
	for u := 0; u < g.Len(); u++ {
		ls, ids, err := g.LocalSet(u)
		if err != nil {
			t.Fatalf("LocalSet(%d): %v", u, err)
		}
		r, err := mldcs.Solve(ls)
		if err != nil {
			t.Fatalf("Solve(%d): %v", u, err)
		}
		set := make([]int, 0, len(r.Cover))
		for _, i := range r.NeighborCover() {
			set = append(set, ids[i])
		}
		fwd[u] = set
		hubIn[u] = r.ContainsHub()
	}
	return fwd, hubIn, g
}

// naiveForwarding recomputes every node's forwarding set with the
// independent O(n² log n) skyline oracle (skyline/naive.go), bypassing
// the divide-and-conquer algorithm the engine uses.
func naiveForwarding(t *testing.T, g *network.Graph) [][]int {
	t.Helper()
	fwd := make([][]int, g.Len())
	for u := 0; u < g.Len(); u++ {
		hub := g.Node(u)
		ids := g.Neighbors(u)
		disks := make([]geom.Disk, 0, len(ids)+1)
		disks = append(disks, geom.Disk{R: hub.Radius})
		for _, v := range ids {
			disks = append(disks, g.Node(v).Disk().Translate(hub.Pos))
		}
		sl, err := skyline.ComputeNaive(disks)
		if err != nil {
			t.Fatalf("ComputeNaive(%d): %v", u, err)
		}
		set := make([]int, 0, len(sl.Set()))
		for _, i := range sl.Set() {
			if i > 0 {
				set = append(set, ids[i-1])
			}
		}
		fwd[u] = set
	}
	return fwd
}

func equalSets(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assertIdentical fails unless the engine result matches the reference
// forwarding sets, hub flags, and neighborhoods element for element.
func assertIdentical(t *testing.T, label string, res *Result, fwd [][]int, hubIn []bool, g *network.Graph) {
	t.Helper()
	for u := range fwd {
		if !equalSets(res.Neighbors[u], g.Neighbors(u)) {
			t.Fatalf("%s: node %d neighbors = %v, want %v", label, u, res.Neighbors[u], g.Neighbors(u))
		}
		if !equalSets(res.Forwarding[u], fwd[u]) {
			t.Fatalf("%s: node %d forwarding = %v, want %v", label, u, res.Forwarding[u], fwd[u])
		}
		if hubIn != nil && res.HubInCover[u] != hubIn[u] {
			t.Fatalf("%s: node %d hubInCover = %v, want %v", label, u, res.HubInCover[u], hubIn[u])
		}
	}
}

// engineVariants is the differential matrix: worker counts {1, 4,
// GOMAXPROCS}.
func engineVariants() []Config {
	return []Config{{Workers: 1}, {Workers: 4}, {Workers: runtime.GOMAXPROCS(0)}}
}

// TestEngineDifferentialRandomDeployments is the core oracle test: on
// random heterogeneous (and homogeneous) deployments across densities, the
// engine's whole-network output is element-identical to the sequential
// per-node mldcs.Solve pipeline, for every worker count.
func TestEngineDifferentialRandomDeployments(t *testing.T) {
	for _, model := range []deploy.RadiusModel{deploy.Heterogeneous, deploy.Homogeneous} {
		for _, degree := range []float64{4, 10, 18} {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				nodes, err := deploy.Generate(deploy.PaperConfig(model, degree), rng)
				if err != nil {
					t.Fatal(err)
				}
				fwd, hubIn, g := sequentialForwarding(t, nodes)
				for _, cfg := range engineVariants() {
					label := fmt.Sprintf("%v deg=%g seed=%d workers=%d",
						model, degree, seed, cfg.Workers)
					res, err := New(cfg).Compute(nodes)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					assertIdentical(t, label, res, fwd, hubIn, g)
				}
			}
		}
	}
}

// TestEngineDifferentialNaiveOracle cross-checks the engine against the
// algorithm-independent naive skyline oracle on smaller deployments (the
// oracle is quadratic per node).
func TestEngineDifferentialNaiveOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		cfg := deploy.PaperConfig(deploy.Heterogeneous, 8)
		cfg.Side = 6 // ≈ 70 nodes: small enough for the O(n² log n) oracle
		nodes, err := deploy.Generate(cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		_, _, g := sequentialForwarding(t, nodes)
		fwd := naiveForwarding(t, g)
		for _, ecfg := range engineVariants() {
			label := fmt.Sprintf("naive seed=%d workers=%d", seed, ecfg.Workers)
			res, err := New(ecfg).Compute(nodes)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertIdentical(t, label, res, fwd, nil, g)
		}
	}
}

// TestEngineDifferentialStructuredDeployments covers a zero-jitter
// perturbed grid, where almost every neighborhood is bit-identical to many
// others up to translation and exact ties between disks are common. Output
// must stay identical to the sequential pipeline.
func TestEngineDifferentialStructuredDeployments(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := deploy.PaperConfig(deploy.Homogeneous, 12)
	cfg.SourceAtCenter = false
	nodes, err := deploy.GeneratePerturbedGrid(cfg, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	fwd, hubIn, g := sequentialForwarding(t, nodes)
	for _, ecfg := range engineVariants() {
		label := fmt.Sprintf("grid workers=%d", ecfg.Workers)
		res, err := New(ecfg).Compute(nodes)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		assertIdentical(t, label, res, fwd, hubIn, g)
	}
}
