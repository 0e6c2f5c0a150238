// Package deploy generates the paper's simulation workloads (§5.1): nodes
// placed uniformly at random over a square deployment region, with a source
// node at the center, in homogeneous (every radius 1) or heterogeneous
// (radius uniform in [1, 2]) variants. The node count is calibrated so that
// the expected number of bidirectional 1-hop neighbors of a typical
// interior node equals the requested mean degree.
//
// Additional generators (clustered and perturbed-grid deployments) provide
// workloads beyond the paper's for robustness testing.
package deploy

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/network"
)

// RadiusModel selects how transmission radii are assigned.
type RadiusModel int

const (
	// Homogeneous gives every node radius RadiusMin (the paper uses 1).
	Homogeneous RadiusModel = iota
	// Heterogeneous draws each radius uniformly from [RadiusMin, RadiusMax]
	// (the paper uses [1, 2]).
	Heterogeneous
)

// String implements fmt.Stringer.
func (m RadiusModel) String() string {
	if m == Homogeneous {
		return "homogeneous"
	}
	return "heterogeneous"
}

// Config describes a deployment.
type Config struct {
	Side       float64     // side length of the square region (paper: 12.5)
	MeanDegree float64     // target average number of 1-hop neighbors n̄
	Radius     RadiusModel // homogeneous or heterogeneous radii
	RadiusMin  float64     // minimum radius (paper: 1)
	RadiusMax  float64     // maximum radius for Heterogeneous (paper: 2)
	// SourceAtCenter places node 0 at the region's center, as the paper
	// does for the measured node u.
	SourceAtCenter bool
}

// PaperConfig returns the paper's §5.1 configuration for the given radius
// model and mean degree: a 12.5 × 12.5 square, radii 1 (homogeneous) or
// U[1, 2] (heterogeneous), and the source at the center.
func PaperConfig(model RadiusModel, meanDegree float64) Config {
	return Config{
		Side:           12.5,
		MeanDegree:     meanDegree,
		Radius:         model,
		RadiusMin:      1,
		RadiusMax:      2,
		SourceAtCenter: true,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if !(c.Side > 0) {
		return fmt.Errorf("deploy: side %g must be positive", c.Side)
	}
	if !(c.MeanDegree > 0) {
		return fmt.Errorf("deploy: mean degree %g must be positive", c.MeanDegree)
	}
	if !(c.RadiusMin > 0) {
		return fmt.Errorf("deploy: minimum radius %g must be positive", c.RadiusMin)
	}
	if c.Radius == Heterogeneous && c.RadiusMax < c.RadiusMin {
		return fmt.Errorf("deploy: radius range [%g, %g] is empty", c.RadiusMin, c.RadiusMax)
	}
	return nil
}

// ExpectedMinRadiusSq returns E[min(R_i, R_j)²] for two independent radii
// under the configuration's radius model. For a bidirectional disk graph
// with node density λ, the expected degree of an interior node is
// λ·π·E[min(R_i, R_j)²], since u ~ v iff ‖u − v‖ ≤ min(r_u, r_v).
//
// For Homogeneous radii this is simply RadiusMin². For Heterogeneous radii
// uniform on [a, b], P(min > t) = ((b − t)/(b − a))², and integrating
// E[min²] = a² + ∫_a^b 2t ((b − t)/(b − a))² dt in closed form gives the
// expression below (11/6 for the paper's [1, 2]).
func (c Config) ExpectedMinRadiusSq() float64 {
	if c.Radius == Homogeneous {
		return c.RadiusMin * c.RadiusMin
	}
	a, b := c.RadiusMin, c.RadiusMax
	if geom.LengthEq(a, b) {
		return a * a
	}
	// ∫_a^b 2t (b − t)² dt = [b²t² − (4b/3)t³ + t⁴/2]_a^b
	anti := func(t float64) float64 {
		return b*b*t*t - 4*b/3*t*t*t + t*t*t*t/2
	}
	return a*a + (anti(b)-anti(a))/((b-a)*(b-a))
}

// NodeCount returns the number of nodes to deploy so that the expected
// bidirectional degree of an interior node is MeanDegree. This generalizes
// the paper's N = (side²/(πr²))·n̄ formula — which assumes a single radius
// r — to heterogeneous radii via ExpectedMinRadiusSq; see docs/DESIGN.md's
// substitution notes.
func (c Config) NodeCount() int {
	n := c.Side * c.Side * c.MeanDegree / (math.Pi * c.ExpectedMinRadiusSq())
	count := int(math.Round(n))
	if count < 1 {
		count = 1
	}
	return count
}

// Generate places NodeCount nodes uniformly at random over the region. If
// SourceAtCenter, node 0 is pinned to the center (its radius is still
// drawn from the radius model, as in the paper, where "every node may have
// different transmission radius ... including the source node").
func Generate(c Config, rng *rand.Rand) ([]network.Node, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	count := c.NodeCount()
	nodes := make([]network.Node, count)
	for i := range nodes {
		pos := geom.Pt(rng.Float64()*c.Side, rng.Float64()*c.Side)
		if i == 0 && c.SourceAtCenter {
			pos = geom.Pt(c.Side/2, c.Side/2)
		}
		nodes[i] = network.Node{ID: i, Pos: pos, Radius: c.drawRadius(rng)}
	}
	return nodes, nil
}

func (c Config) drawRadius(rng *rand.Rand) float64 {
	if c.Radius == Homogeneous {
		return c.RadiusMin
	}
	return c.RadiusMin + rng.Float64()*(c.RadiusMax-c.RadiusMin)
}

// GeneratePerturbedGrid places nodes on a √N × √N grid jittered by a
// fraction of the grid pitch — a near-regular workload with tightly
// controlled degrees.
//
// Test support: the engine's differential tests and benchmarks deploy on
// it; no production code calls it.
func GeneratePerturbedGrid(c Config, jitter float64, rng *rand.Rand) ([]network.Node, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if jitter < 0 || jitter > 1 {
		return nil, fmt.Errorf("deploy: jitter %g must be in [0, 1]", jitter)
	}
	count := c.NodeCount()
	cols := int(math.Ceil(math.Sqrt(float64(count))))
	pitch := c.Side / float64(cols)
	nodes := make([]network.Node, count)
	for i := range nodes {
		pos := geom.Pt(c.Side/2, c.Side/2)
		if !(i == 0 && c.SourceAtCenter) {
			row, col := i/cols, i%cols
			pos = geom.Pt(
				clampTo((float64(col)+0.5+(rng.Float64()*2-1)*jitter)*pitch, 0, c.Side),
				clampTo((float64(row)+0.5+(rng.Float64()*2-1)*jitter)*pitch, 0, c.Side),
			)
		}
		nodes[i] = network.Node{ID: i, Pos: pos, Radius: c.drawRadius(rng)}
	}
	return nodes, nil
}

func clampTo(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
