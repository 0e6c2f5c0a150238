package mldcs

// The benchmark harness: one benchmark per table/figure of the paper's
// evaluation plus the scaling experiment of Chapter 4 (docs/DESIGN.md,
// per-experiment index). The skyline constructions' comparison and the A2
// ablation live with the skyline package (internal/skyline/bench_test.go).
// Run everything with
//
//	go test -bench=. -benchmem
//
// Benchmarks that regenerate statistical figures (Fig5_*) use reduced
// replication counts per iteration; the CLI (cmd/mldcsim) runs the paper's
// full 200-replication versions.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/deploy"
	"repro/internal/experiments"
	"repro/internal/forwarding"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/skyline"
)

// benchFigureConfig keeps per-iteration work bounded while exercising the
// full experiment pipeline.
func benchFigureConfig() experiments.Config {
	return experiments.Config{Replications: 10, Seed: 42, Workers: 4, Degrees: []float64{10}}
}

func benchFigure(b *testing.B, id string) {
	b.Helper()
	cfg := benchFigureConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fig, err := RunExperiment(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig5_1 regenerates Figure 5.1 (homogeneous average
// forwarding-set sizes, five algorithms).
func BenchmarkFig5_1(b *testing.B) { benchFigure(b, "fig5.1") }

// BenchmarkFig5_2 regenerates Figure 5.2 (homogeneous size distribution at
// mean degree 10).
func BenchmarkFig5_2(b *testing.B) { benchFigure(b, "fig5.2") }

// BenchmarkFig5_3 regenerates Figure 5.3 (homogeneous size distribution at
// mean degree 20).
func BenchmarkFig5_3(b *testing.B) { benchFigure(b, "fig5.3") }

// BenchmarkFig5_4 regenerates Figure 5.4 (heterogeneous average
// forwarding-set sizes, four algorithms).
func BenchmarkFig5_4(b *testing.B) { benchFigure(b, "fig5.4") }

// BenchmarkFig5_5 regenerates Figure 5.5 (heterogeneous size distribution
// at mean degree 10).
func BenchmarkFig5_5(b *testing.B) { benchFigure(b, "fig5.5") }

// BenchmarkFig5_6 regenerates the §5.1.2/Figure 5.6 drawback metrics
// (skyline 2-hop coverage in heterogeneous networks, repair overhead).
func BenchmarkFig5_6(b *testing.B) { benchFigure(b, "fig5.6") }

// randomLocalDisks mirrors the paper's heterogeneous local sets.
func randomLocalDisks(rng *rand.Rand, n int) []geom.Disk {
	disks := make([]geom.Disk, n)
	for i := range disks {
		r := 1 + rng.Float64()
		dist := rng.Float64() * r * 0.999
		theta := rng.Float64() * geom.TwoPi
		disks[i] = geom.Disk{C: geom.Unit(theta).Scale(dist), R: r}
	}
	return disks
}

// BenchmarkSkylineScaling is the Chapter 4 experiment (Theorem 9): the
// divide-and-conquer skyline across input sizes. ns/op should grow as
// n log n.
func BenchmarkSkylineScaling(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024, 4096, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			disks := randomLocalDisks(rand.New(rand.NewSource(1)), n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := skyline.Compute(disks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchNetwork(b *testing.B, model deploy.RadiusModel, degree float64) *network.Graph {
	b.Helper()
	nodes, err := deploy.Generate(deploy.PaperConfig(model, degree), rand.New(rand.NewSource(5)))
	if err != nil {
		b.Fatal(err)
	}
	g, err := network.Build(nodes, network.Bidirectional)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkSelectors measures a single forwarding-set selection at the
// paper's mean degree 10 for every algorithm, on the same heterogeneous
// network (calinescu gets its homogeneous counterpart).
func BenchmarkSelectors(b *testing.B) {
	het := benchNetwork(b, deploy.Heterogeneous, 10)
	hom := benchNetwork(b, deploy.Homogeneous, 10)
	cases := []struct {
		name string
		g    *network.Graph
		sel  forwarding.Selector
	}{
		{"flooding", het, forwarding.Flooding{}},
		{"skyline", het, forwarding.Skyline{}},
		{"greedy", het, forwarding.Greedy{}},
		{"optimal", het, forwarding.Optimal{}},
		{"repair", het, forwarding.SkylineRepair{}},
		{"calinescu", hom, forwarding.Calinescu{}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.sel.Select(c.g, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBroadcastStorm is the §1.2 end-to-end experiment: one
// network-wide broadcast per iteration under each relaying policy.
func BenchmarkBroadcastStorm(b *testing.B) {
	for _, model := range []deploy.RadiusModel{deploy.Homogeneous, deploy.Heterogeneous} {
		g := benchNetwork(b, model, 10)
		for _, pc := range []struct {
			name string
			sel  forwarding.Selector
		}{
			{"flooding", nil},
			{"skyline", forwarding.Skyline{}},
			{"greedy", forwarding.Greedy{}},
		} {
			b.Run(model.String()+"/"+pc.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := broadcast.Run(g, 0, pc.sel); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkRepair is the X1 extension benchmark: the 2-hop repair pass on
// heterogeneous networks of increasing density.
func BenchmarkRepair(b *testing.B) {
	for _, degree := range []float64{6, 12, 18} {
		g := benchNetwork(b, deploy.Heterogeneous, degree)
		b.Run(fmt.Sprintf("degree=%g", degree), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (forwarding.SkylineRepair{}).Select(g, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProtocols measures one whole-network broadcast per iteration
// for every protocol in the comparison suite (X4 in docs/DESIGN.md).
func BenchmarkProtocols(b *testing.B) {
	g := benchNetwork(b, deploy.Heterogeneous, 10)
	cases := []struct {
		name string
		run  func() (broadcast.Result, error)
	}{
		{"self-pruning", func() (broadcast.Result, error) { return broadcast.RunSelfPruning(g, 0) }},
		{"neighbor-elim", func() (broadcast.Result, error) { return broadcast.RunNeighborElimination(g, 0) }},
		{"pdp", func() (broadcast.Result, error) { return broadcast.RunDominantPruning(g, 0, broadcast.PDP) }},
		{"tdp", func() (broadcast.Result, error) { return broadcast.RunDominantPruning(g, 0, broadcast.TDP) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCollision measures the slotted collision simulation (X3).
func BenchmarkCollision(b *testing.B) {
	g := benchNetwork(b, deploy.Heterogeneous, 10)
	for _, c := range []struct {
		name string
		sel  forwarding.Selector
	}{{"flooding", nil}, {"greedy", forwarding.Greedy{}}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := broadcast.RunWithCollisions(g, 0, c.sel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExactArea measures the closed-form union area (per skyline
// arc) at growing set sizes.
func BenchmarkExactArea(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		disks := randomLocalDisks(rand.New(rand.NewSource(7)), n)
		sl, err := skyline.Compute(disks)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = sl.Area(disks)
			}
		})
	}
}

// BenchmarkMoveNode compares incremental topology maintenance against a
// full rebuild for a single node relocation — the per-HELLO-interval
// operation of a mobile network.
func BenchmarkMoveNode(b *testing.B) {
	nodes, err := deploy.Generate(deploy.PaperConfig(deploy.Heterogeneous, 10),
		rand.New(rand.NewSource(8)))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	b.Run("incremental", func(b *testing.B) {
		g, err := network.Build(nodes, network.Bidirectional)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			u := rng.Intn(g.Len())
			if err := g.MoveNode(u, geom.Pt(rng.Float64()*12.5, rng.Float64()*12.5)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		current := append([]network.Node(nil), nodes...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			u := rng.Intn(len(current))
			current[u].Pos = geom.Pt(rng.Float64()*12.5, rng.Float64()*12.5)
			if _, err := network.Build(current, network.Bidirectional); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGraphBuild measures disk-graph construction (the spatial-grid
// substrate) at the paper's densities.
func BenchmarkGraphBuild(b *testing.B) {
	for _, degree := range []float64{10, 20} {
		nodes, err := deploy.Generate(deploy.PaperConfig(deploy.Heterogeneous, degree),
			rand.New(rand.NewSource(6)))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("degree=%g/nodes=%d", degree, len(nodes)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := network.Build(nodes, network.Bidirectional); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
