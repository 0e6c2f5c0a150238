package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro"
	"repro/internal/deploy"
	"repro/internal/engine"
	"repro/internal/mobility"
	"repro/internal/network"
)

// engineOpts carries the -engine mode flags.
type engineOpts struct {
	nodes      int     // target network size
	degree     float64 // target mean 1-hop degree
	model      string  // "homogeneous" or "heterogeneous"
	workers    int     // engine worker count (0 = GOMAXPROCS)
	steps      int     // small-move steps to run through the incremental path
	verify     bool    // cross-check against the sequential per-node pipeline
	contention float64 // zipf hotspot skew (0 = uniform placement and movers)
	hotspots   int     // hotspot cluster count when contention > 0
	seed       int64
}

// runEngine exercises the whole-network engine from the command line: one
// full Compute over a deployment scaled to the requested size, optional
// small-move steps through Apply (the incremental pass mldcsd runs), and
// an optional differential verification against the sequential pipeline.
func runEngine(o engineOpts) error {
	var radiusModel deploy.RadiusModel
	switch o.model {
	case "homogeneous":
		radiusModel = deploy.Homogeneous
	case "heterogeneous":
		radiusModel = deploy.Heterogeneous
	default:
		return fmt.Errorf("unknown -model %q (want homogeneous or heterogeneous)", o.model)
	}
	dcfg := deploy.PaperConfig(radiusModel, o.degree)
	// Scale the region so the density calibration yields ≈ o.nodes nodes.
	dcfg.Side = math.Sqrt(float64(o.nodes) * math.Pi * dcfg.ExpectedMinRadiusSq() / o.degree)
	rng := rand.New(rand.NewSource(o.seed))
	// -contention > 0 swaps the uniform deployment for the zipf hotspot
	// workload (skewed placement now, skewed movers in the step loop);
	// contention 0 generates byte-for-byte the uniform deployment.
	hw, err := mobility.NewHotspotWorkload(mobility.HotspotConfig{
		Deploy:     dcfg,
		Hotspots:   o.hotspots,
		Contention: o.contention,
		Spread:     0.6,
		MoveFrac:   0.02,
	}, rng)
	if err != nil {
		return err
	}
	nodes := hw.Nodes()
	if o.contention > 0 {
		fmt.Printf("workload: zipf hotspots (contention %g, %d clusters)\n", o.contention, o.hotspots)
	}

	eng := mldcs.NewEngine(mldcs.EngineConfig{Workers: o.workers})
	start := time.Now()
	res, err := eng.Compute(nodes)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	s := res.Stats
	fmt.Printf("engine: %d nodes, %d edges, %d grid cells, %d workers\n",
		s.Nodes, s.Edges, s.Cells, s.Workers)
	fmt.Printf("compute: %v (%.0f nodes/sec)\n", elapsed.Round(time.Microsecond),
		float64(s.Nodes)/elapsed.Seconds())
	if o.verify {
		if err := verifyEngine(nodes, eng.View()); err != nil {
			return err
		}
		fmt.Println("verify: engine output element-identical to sequential per-node pipeline")
	}

	// Each step moves 1% of the nodes (uniformly at contention 0, mostly
	// hot-cluster nodes otherwise) by at most 2% of their radius and hands
	// the moved slots to Apply.
	movers := 1 + len(nodes)/100
	var ds []engine.Delta
	for step := 1; step <= o.steps; step++ {
		ds = ds[:0]
		for _, u := range hw.Step(movers, rng) {
			n := nodes[u]
			ds = append(ds, engine.Delta{Slot: u, Key: int64(u), Pos: n.Pos, Radius: n.Radius})
		}
		start := time.Now()
		v, err := eng.Apply(ds)
		if err != nil {
			return err
		}
		s := v.Stats
		fmt.Printf("step %d: %d moved, %d dirty (%.1f%% of network), apply %v, imbalance %.2f\n",
			step, s.Moved, s.Dirty, 100*float64(s.Dirty)/float64(s.Nodes),
			time.Since(start).Round(time.Microsecond), s.WorkerImbalance)
		if o.verify {
			if err := verifyEngine(nodes, v); err != nil {
				return fmt.Errorf("step %d: %w", step, err)
			}
		}
	}
	if o.verify && o.steps > 0 {
		fmt.Printf("verify: %d incremental passes element-identical to sequential recompute\n", o.steps)
	}
	return nil
}

// verifyEngine recomputes every forwarding set with the sequential
// pipeline and errors on the first divergence from the published view.
func verifyEngine(nodes []network.Node, v *engine.View) error {
	g, err := mldcs.BuildNetwork(nodes, mldcs.Bidirectional)
	if err != nil {
		return err
	}
	for u := range nodes {
		hub := g.Node(u)
		ids := g.Neighbors(u)
		disks := make([]mldcs.Disk, len(ids))
		for i, v := range ids {
			disks[i] = g.Node(v).Disk()
		}
		fwd, err := mldcs.ForwardingSet(hub.Disk(), disks)
		if err != nil {
			return err
		}
		want := make([]int, len(fwd))
		for i, idx := range fwd {
			want[i] = ids[idx]
		}
		if got := v.Forwarding(u); !slices.Equal(got, want) {
			return fmt.Errorf("verify: node %d forwarding %v != sequential %v", u, got, want)
		}
	}
	return nil
}
