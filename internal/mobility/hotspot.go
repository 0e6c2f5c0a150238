package mobility

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/deploy"
	"repro/internal/geom"
	"repro/internal/network"
)

// This file provides the contention-skewed workload used to stress the
// engine's worker pool: node placement concentrated in zipf-weighted
// hotspot clusters (so a few grid cells hold most of the network) and a
// mover process that draws from the same skew (so the dirty set of every
// incremental pass lands in the hot cells too). Contention = 0 is defined
// to be byte-for-byte the existing uniform workload — same deployment
// draws, same mover draws — so drivers can treat the knob as a pure skew
// dial.

// HotspotConfig parameterizes a zipf-skewed hotspot workload.
type HotspotConfig struct {
	Deploy deploy.Config
	// Hotspots is the number of cluster centers (ignored when
	// Contention == 0).
	Hotspots int
	// Contention is the zipf exponent s skewing both placement and mover
	// selection across hotspots: 0 = uniform (no hotspots at all), larger
	// values concentrate more of the network — and more of the movement —
	// in the top-ranked clusters.
	Contention float64
	// Spread is the Gaussian radius of each cluster, in region units
	// (ignored when Contention == 0).
	Spread float64
	// MoveFrac is the per-move drift bound as a fraction of the moving
	// node's radius (the uniform workload's small-move step).
	MoveFrac float64
}

// Validate checks the configuration.
func (c HotspotConfig) Validate() error {
	if err := c.Deploy.Validate(); err != nil {
		return err
	}
	if c.Contention < 0 {
		return fmt.Errorf("mobility: contention %g must be ≥ 0", c.Contention)
	}
	if c.Contention > 0 {
		if c.Hotspots < 1 {
			return fmt.Errorf("mobility: hotspots %d must be ≥ 1 when contention > 0", c.Hotspots)
		}
		if !(c.Spread > 0) {
			return fmt.Errorf("mobility: spread %g must be positive when contention > 0", c.Spread)
		}
	}
	if !(c.MoveFrac > 0) {
		return fmt.Errorf("mobility: move fraction %g must be positive", c.MoveFrac)
	}
	return nil
}

// HotspotWorkload is a generated hotspot deployment plus its skewed mover
// process. All randomness flows through the rng handed to each method, so
// a fixed seed reproduces the whole workload exactly.
type HotspotWorkload struct {
	cfg     HotspotConfig
	nodes   []network.Node
	zipf    *Zipf   // nil when Contention == 0
	members [][]int // node indices per hotspot rank (rank 0 hottest)
	moved   []int   // the slots the last Step moved
}

// NewHotspotWorkload generates the deployment. At Contention == 0 it
// delegates to deploy.Generate, consuming the rng identically — the
// contention-zero table test pins that byte-for-byte.
func NewHotspotWorkload(cfg HotspotConfig, rng *rand.Rand) (*HotspotWorkload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := &HotspotWorkload{cfg: cfg}
	//mldcslint:allow floatcmp mode switch, not geometry: exactly 0 selects the uniform generator, any positive value the zipf path
	if cfg.Contention == 0 {
		nodes, err := deploy.Generate(cfg.Deploy, rng)
		if err != nil {
			return nil, err
		}
		w.nodes = nodes
		return w, nil
	}
	z, err := NewZipf(cfg.Hotspots, cfg.Contention)
	if err != nil {
		return nil, err
	}
	w.zipf = z
	centers := make([]geom.Point, cfg.Hotspots)
	for i := range centers {
		centers[i] = geom.Pt(rng.Float64()*cfg.Deploy.Side, rng.Float64()*cfg.Deploy.Side)
	}
	side := cfg.Deploy.Side
	count := cfg.Deploy.NodeCount()
	w.nodes = make([]network.Node, count)
	w.members = make([][]int, cfg.Hotspots)
	for i := range w.nodes {
		var pos geom.Point
		var rank int
		if i == 0 && cfg.Deploy.SourceAtCenter {
			// The pinned source joins the hottest cluster's mover pool so
			// every node stays eligible to move.
			pos = geom.Pt(side/2, side/2)
		} else {
			rank = z.Rank(rng)
			c := centers[rank]
			pos = geom.Pt(
				clampTo(c.X+rng.NormFloat64()*cfg.Spread, 0, side),
				clampTo(c.Y+rng.NormFloat64()*cfg.Spread, 0, side),
			)
		}
		w.members[rank] = append(w.members[rank], i)
		w.nodes[i] = network.Node{ID: i, Pos: pos, Radius: drawRadius(cfg.Deploy, rng)}
	}
	return w, nil
}

// drawRadius mirrors deploy's radius draw (one Float64 for heterogeneous,
// none for homogeneous) so hotspot and uniform deployments consume the rng
// the same way per node.
func drawRadius(c deploy.Config, rng *rand.Rand) float64 {
	if c.Radius == deploy.Homogeneous {
		return c.RadiusMin
	}
	return c.RadiusMin + rng.Float64()*(c.RadiusMax-c.RadiusMin)
}

// Nodes returns the workload's current node states. The slice is live —
// Step mutates it in place — so callers that need a stable snapshot must
// copy it. An engine that computed these nodes once stays in step by
// taking only the slots each Step returns.
func (w *HotspotWorkload) Nodes() []network.Node { return w.nodes }

// PickMover draws the next node to move. At contention 0 this is one
// rng.Intn(n) — exactly the uniform workload's draw. Otherwise a hotspot
// rank is drawn from the zipf (one Float64) and a uniform member of that
// cluster moves, so hot clusters churn proportionally to their mass.
func (w *HotspotWorkload) PickMover(rng *rand.Rand) int {
	if w.zipf == nil {
		return rng.Intn(len(w.nodes))
	}
	for {
		m := w.members[w.zipf.Rank(rng)]
		if len(m) > 0 {
			return m[rng.Intn(len(m))]
		}
	}
}

// Step moves `movers` nodes in place: each move is one PickMover draw
// followed by one SmallMoveStep. At contention 0 the whole tick consumes
// the rng exactly like the uniform small-move workload. It returns the
// nodes whose state changed — each moved slot once, in the order it first
// moved — which is what an incremental engine pass takes as its deltas.
// The returned slice is reused by the next Step.
func (w *HotspotWorkload) Step(movers int, rng *rand.Rand) []int {
	w.moved = w.moved[:0]
	for i := 0; i < movers; i++ {
		u := w.PickMover(rng)
		SmallMoveStep(w.nodes, u, w.cfg.MoveFrac, rng)
		if !slices.Contains(w.moved, u) {
			w.moved = append(w.moved, u)
		}
	}
	return w.moved
}

// SmallMoveStep perturbs node u in place by a drift uniform in
// [-frac·R_u, +frac·R_u] per axis — the canonical small-move used by the
// kinetic benchmarks (two Float64 draws, X then Y).
func SmallMoveStep(nodes []network.Node, u int, frac float64, rng *rand.Rand) {
	step := frac * nodes[u].Radius
	nodes[u].Pos.X += (rng.Float64()*2 - 1) * step
	nodes[u].Pos.Y += (rng.Float64()*2 - 1) * step
}

// clampTo clamps x into [lo, hi].
func clampTo(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
