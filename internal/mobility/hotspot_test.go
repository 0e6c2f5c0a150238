package mobility

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/deploy"
)

func hotspotConfig(contention float64) HotspotConfig {
	return HotspotConfig{
		Deploy:     deploy.PaperConfig(deploy.Heterogeneous, 8),
		Hotspots:   8,
		Contention: contention,
		Spread:     0.6,
		MoveFrac:   0.02,
	}
}

func TestHotspotConfigValidate(t *testing.T) {
	if err := hotspotConfig(1.2).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := hotspotConfig(0).Validate(); err != nil {
		t.Fatalf("contention-zero config rejected: %v", err)
	}
	bad := []HotspotConfig{
		{Deploy: deploy.PaperConfig(deploy.Homogeneous, 8), Contention: -1, MoveFrac: 0.02},
		{Deploy: deploy.PaperConfig(deploy.Homogeneous, 8), Contention: 1, Hotspots: 0, Spread: 1, MoveFrac: 0.02},
		{Deploy: deploy.PaperConfig(deploy.Homogeneous, 8), Contention: 1, Hotspots: 4, Spread: 0, MoveFrac: 0.02},
		{Deploy: deploy.PaperConfig(deploy.Homogeneous, 8), Contention: 1, Hotspots: 4, Spread: 1, MoveFrac: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := NewZipf(4, -0.5); err == nil {
		t.Error("negative exponent accepted")
	}
	if _, err := NewZipf(4, math.NaN()); err == nil {
		t.Error("NaN exponent accepted")
	}
}

// TestZipfTailMass draws a large sample and compares the empirical CDF
// against the analytic zipf CDF at every rank: the skew must be real (rank
// 0 carries the most mass) and match theory within Monte-Carlo noise.
func TestZipfTailMass(t *testing.T) {
	const n, s, draws = 16, 1.2, 200000
	z, err := NewZipf(n, s)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.Rank(rng)]++
	}
	cum := 0
	for k := 0; k < n; k++ {
		cum += counts[k]
		got := float64(cum) / draws
		want := z.CDF(k)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("rank %d: empirical CDF %.4f, analytic %.4f", k, got, want)
		}
	}
	// Sanity on the analytic side: with s=1.2 over 16 ranks the top rank
	// holds well over the uniform share and the masses decrease.
	if z.CDF(0) < 2.0/n {
		t.Errorf("rank 0 mass %.4f not skewed above uniform %.4f", z.CDF(0), 1.0/n)
	}
	for k := 1; k < n; k++ {
		if z.CDF(k)-z.CDF(k-1) > z.CDF(k-1)-z.CDF(k-2)+1e-15 && k >= 2 {
			t.Errorf("mass not non-increasing at rank %d", k)
		}
	}
}

// TestZipfUniformAtZero pins that exponent 0 is the uniform distribution.
func TestZipfUniformAtZero(t *testing.T) {
	z, err := NewZipf(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		if want := float64(k+1) / 10; math.Abs(z.CDF(k)-want) > 1e-12 {
			t.Errorf("CDF(%d) = %.6f, want %.6f", k, z.CDF(k), want)
		}
	}
}

// TestHotspotDeterminism: a fixed seed reproduces the deployment and the
// whole mover trajectory exactly, and every Step returns exactly the
// nodes whose state it changed, each once.
func TestHotspotDeterminism(t *testing.T) {
	for _, contention := range []float64{0, 0.8, 1.5} {
		run := func(seed int64) []float64 {
			w, err := NewHotspotWorkload(hotspotConfig(contention), rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed + 1))
			var trace []float64
			for tick := 0; tick < 5; tick++ {
				before := slices.Clone(w.Nodes())
				moved := slices.Clone(w.Step(20, rng))
				slices.Sort(moved)
				var changed []int
				for i, n := range w.Nodes() {
					if n != before[i] {
						changed = append(changed, i)
					}
				}
				if !slices.Equal(moved, changed) {
					t.Fatalf("contention %g tick %d: Step returned %v, changed nodes %v", contention, tick, moved, changed)
				}
				for _, n := range w.Nodes() {
					trace = append(trace, n.Pos.X, n.Pos.Y, n.Radius)
				}
			}
			return trace
		}
		a, b := run(42), run(42)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("contention %g: trajectories diverge at element %d", contention, i)
			}
		}
	}
}

// TestHotspotContentionZeroIsUniform pins the contract the engine benches
// rely on: contention 0 is the existing uniform workload byte-for-byte —
// identical deployment draws and identical mover draws.
func TestHotspotContentionZeroIsUniform(t *testing.T) {
	const seed = 11
	cfg := hotspotConfig(0)
	w, err := NewHotspotWorkload(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := deploy.Generate(cfg.Deploy, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	got := w.Nodes()
	if len(got) != len(want) {
		t.Fatalf("node count %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("node %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
	// Mover process: one Intn draw plus one SmallMoveStep per move.
	wr := rand.New(rand.NewSource(seed + 1))
	mr := rand.New(rand.NewSource(seed + 1))
	for tick := 0; tick < 10; tick++ {
		w.Step(15, wr)
		for i := 0; i < 15; i++ {
			SmallMoveStep(want, mr.Intn(len(want)), cfg.MoveFrac, mr)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("tick %d: node %d diverged: %+v vs %+v", tick, i, got[i], want[i])
			}
		}
	}
}

// TestHotspotSkewConcentrates checks the placement skew does what the
// contended benchmarks need: with high contention, the hottest cluster holds far more
// than the uniform share of the nodes.
func TestHotspotSkewConcentrates(t *testing.T) {
	cfg := hotspotConfig(1.5)
	w, err := NewHotspotWorkload(cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	n := len(w.Nodes())
	top := len(w.members[0])
	if uniform := n / cfg.Hotspots; top < 2*uniform {
		t.Errorf("hottest cluster has %d of %d nodes; want ≥ 2× the uniform share %d", top, n, uniform)
	}
	total := 0
	for _, m := range w.members {
		total += len(m)
	}
	if total != n {
		t.Errorf("cluster membership covers %d of %d nodes", total, n)
	}
}

// TestHotspotMoverSkew checks mover selection concentrates on the hot
// clusters: over many ticks, rank-0 members move far more often than a
// uniform pick would make them.
func TestHotspotMoverSkew(t *testing.T) {
	cfg := hotspotConfig(1.5)
	w, err := NewHotspotWorkload(cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	inTop := make([]bool, len(w.Nodes()))
	for _, u := range w.members[0] {
		inTop[u] = true
	}
	rng := rand.New(rand.NewSource(6))
	const draws = 20000
	hits := 0
	for i := 0; i < draws; i++ {
		if inTop[w.PickMover(rng)] {
			hits++
		}
	}
	z, err := NewZipf(cfg.Hotspots, cfg.Contention)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(hits) / draws
	if want := z.CDF(0); math.Abs(got-want) > 0.02 {
		t.Errorf("top-cluster mover share %.4f, want ≈ %.4f", got, want)
	}
}
