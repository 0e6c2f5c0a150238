package deploy

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/network"
)

func TestValidate(t *testing.T) {
	good := PaperConfig(Homogeneous, 10)
	if err := good.Validate(); err != nil {
		t.Fatalf("paper config must validate: %v", err)
	}
	bad := []Config{
		{Side: 0, MeanDegree: 10, RadiusMin: 1},
		{Side: 12.5, MeanDegree: 0, RadiusMin: 1},
		{Side: 12.5, MeanDegree: 10, RadiusMin: 0},
		{Side: 12.5, MeanDegree: 10, Radius: Heterogeneous, RadiusMin: 2, RadiusMax: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d must fail", i)
		}
	}
}

func TestExpectedMinRadiusSq(t *testing.T) {
	hom := PaperConfig(Homogeneous, 10)
	if got := hom.ExpectedMinRadiusSq(); got != 1 {
		t.Errorf("homogeneous E[min²] = %v, want 1", got)
	}
	het := PaperConfig(Heterogeneous, 10)
	if got, want := het.ExpectedMinRadiusSq(), 11.0/6.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("heterogeneous E[min²] = %v, want 11/6 = %v", got, want)
	}
	// Degenerate range [a, a] reduces to the homogeneous value.
	deg := Config{Side: 12.5, MeanDegree: 10, Radius: Heterogeneous, RadiusMin: 1.5, RadiusMax: 1.5}
	if got := deg.ExpectedMinRadiusSq(); math.Abs(got-2.25) > 1e-9 {
		t.Errorf("degenerate range E[min²] = %v, want 2.25", got)
	}
}

// Monte-Carlo check of the closed-form E[min(R_i,R_j)²] for a non-paper
// radius range.
func TestExpectedMinRadiusSqMonteCarlo(t *testing.T) {
	c := Config{Side: 10, MeanDegree: 10, Radius: Heterogeneous, RadiusMin: 0.5, RadiusMax: 3}
	rng := rand.New(rand.NewSource(9))
	sum := 0.0
	const trials = 400000
	for i := 0; i < trials; i++ {
		a := c.RadiusMin + rng.Float64()*(c.RadiusMax-c.RadiusMin)
		b := c.RadiusMin + rng.Float64()*(c.RadiusMax-c.RadiusMin)
		m := math.Min(a, b)
		sum += m * m
	}
	mc := sum / trials
	if got := c.ExpectedMinRadiusSq(); math.Abs(got-mc)/mc > 0.01 {
		t.Errorf("closed form %v disagrees with Monte Carlo %v", got, mc)
	}
}

func TestNodeCountPaperFormula(t *testing.T) {
	// Homogeneous: N = side²·n̄/(π·r²) = 156.25·10/π ≈ 497.
	c := PaperConfig(Homogeneous, 10)
	want := int(math.Round(156.25 * 10 / math.Pi))
	if got := c.NodeCount(); got != want {
		t.Errorf("NodeCount = %d, want %d", got, want)
	}
	// Node count grows linearly with mean degree.
	c20 := PaperConfig(Homogeneous, 20)
	if got := c20.NodeCount(); got < 2*c.NodeCount()-2 || got > 2*c.NodeCount()+2 {
		t.Errorf("NodeCount(20) = %d, want ≈ 2 × %d", got, c.NodeCount())
	}
	// Heterogeneous networks need fewer nodes for the same degree because
	// E[min²] > 1.
	het := PaperConfig(Heterogeneous, 10)
	if het.NodeCount() >= c.NodeCount() {
		t.Errorf("heterogeneous count %d should be below homogeneous %d",
			het.NodeCount(), c.NodeCount())
	}
}

func TestGenerateBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, model := range []RadiusModel{Homogeneous, Heterogeneous} {
		c := PaperConfig(model, 10)
		nodes, err := Generate(c, rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(nodes) != c.NodeCount() {
			t.Fatalf("%v: generated %d nodes, want %d", model, len(nodes), c.NodeCount())
		}
		if nodes[0].Pos.X != 6.25 || nodes[0].Pos.Y != 6.25 {
			t.Errorf("%v: source at %v, want center", model, nodes[0].Pos)
		}
		for i, n := range nodes {
			if n.ID != i {
				t.Fatalf("%v: node %d has ID %d", model, i, n.ID)
			}
			if n.Pos.X < 0 || n.Pos.X > c.Side || n.Pos.Y < 0 || n.Pos.Y > c.Side {
				t.Fatalf("%v: node %d outside region: %v", model, i, n.Pos)
			}
			switch model {
			case Homogeneous:
				if n.Radius != 1 {
					t.Fatalf("homogeneous radius = %v", n.Radius)
				}
			case Heterogeneous:
				if n.Radius < 1 || n.Radius > 2 {
					t.Fatalf("heterogeneous radius = %v outside [1, 2]", n.Radius)
				}
			}
		}
	}
}

func TestGenerateRejectsInvalid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Generate(Config{}, rng); err == nil {
		t.Error("invalid config must fail")
	}
}

// The generated density must actually deliver the requested mean degree
// for interior nodes (within sampling error), validating the calibration —
// including the heterogeneous generalization of the paper's formula.
func TestGeneratedDegreeMatchesTarget(t *testing.T) {
	for _, model := range []RadiusModel{Homogeneous, Heterogeneous} {
		for _, target := range []float64{6, 10, 16} {
			c := PaperConfig(model, target)
			rng := rand.New(rand.NewSource(int64(100*target) + int64(model)))
			sum, count := 0.0, 0
			for rep := 0; rep < 40; rep++ {
				nodes, err := Generate(c, rng)
				if err != nil {
					t.Fatal(err)
				}
				g, err := network.Build(nodes, network.Bidirectional)
				if err != nil {
					t.Fatal(err)
				}
				// Average over interior nodes only (boundary nodes have
				// truncated neighborhoods).
				for u := 0; u < g.Len(); u++ {
					p := g.Node(u).Pos
					margin := 2.0
					if p.X < margin || p.X > c.Side-margin || p.Y < margin || p.Y > c.Side-margin {
						continue
					}
					sum += float64(g.Degree(u))
					count++
				}
			}
			mean := sum / float64(count)
			if math.Abs(mean-target)/target > 0.08 {
				t.Errorf("%v target %g: measured interior mean degree %.3f", model, target, mean)
			}
		}
	}
}

func TestGeneratePerturbedGrid(t *testing.T) {
	c := PaperConfig(Heterogeneous, 8)
	rng := rand.New(rand.NewSource(20))
	nodes, err := GeneratePerturbedGrid(c, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != c.NodeCount() {
		t.Fatalf("grid generated %d nodes", len(nodes))
	}
	if nodes[0].Pos.X != c.Side/2 {
		t.Error("source must stay at center")
	}
	for _, n := range nodes {
		if n.Pos.X < 0 || n.Pos.X > c.Side || n.Pos.Y < 0 || n.Pos.Y > c.Side {
			t.Fatalf("node outside region: %v", n.Pos)
		}
	}
	if _, err := GeneratePerturbedGrid(c, 2, rng); err == nil {
		t.Error("jitter > 1 must fail")
	}
}

func TestRadiusModelString(t *testing.T) {
	if Homogeneous.String() != "homogeneous" || Heterogeneous.String() != "heterogeneous" {
		t.Error("RadiusModel.String mismatch")
	}
}

// Determinism: the same seed produces the same deployment.
func TestGenerateDeterministic(t *testing.T) {
	c := PaperConfig(Heterogeneous, 10)
	a, err := Generate(c, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(c, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d differs between identical seeds", i)
		}
	}
}
