package broadcast

import (
	"math/rand"
	"testing"

	"repro/internal/deploy"
	"repro/internal/forwarding"
	"repro/internal/network"
	"repro/internal/obs"
)

func benchGraph(b *testing.B, degree float64) *network.Graph {
	b.Helper()
	nodes, err := deploy.Generate(deploy.PaperConfig(deploy.Heterogeneous, degree),
		rand.New(rand.NewSource(3)))
	if err != nil {
		b.Fatal(err)
	}
	g, err := network.Build(nodes, network.Bidirectional)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// cachedSelector replays forwarding sets computed before the timed loop,
// so a benchmark times the simulator and not the selector.
type cachedSelector struct{ sets [][]int }

func (c cachedSelector) Name() string { return "cached" }

func (c cachedSelector) Select(_ *network.Graph, u int) ([]int, error) {
	return c.sets[u], nil
}

// precompute evaluates sel for every node of g.
func precompute(b *testing.B, g *network.Graph, sel forwarding.Selector) cachedSelector {
	b.Helper()
	sets := make([][]int, g.Len())
	for u := range sets {
		set, err := sel.Select(g, u)
		if err != nil {
			b.Fatal(err)
		}
		sets[u] = set
	}
	return cachedSelector{sets}
}

// BenchmarkRunFlooding / BenchmarkRunSkyline are the reference numbers for
// the disabled-instrumentation fast path of the simulator;
// BenchmarkRunInstrumented measures the same skyline broadcast with a live
// registry (no event sink), quantifying the per-round accounting cost.
func BenchmarkRunFlooding(b *testing.B) {
	g := benchGraph(b, 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunSkyline(b *testing.B) {
	g := benchGraph(b, 12)
	sets := precompute(b, g, forwarding.Skyline{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, 0, sets); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunInstrumented(b *testing.B) {
	Instrument(obs.NewRegistry(), nil)
	defer Instrument(nil, nil)
	g := benchGraph(b, 12)
	sets := precompute(b, g, forwarding.Skyline{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, 0, sets); err != nil {
			b.Fatal(err)
		}
	}
}
