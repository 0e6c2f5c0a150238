package experiments

import (
	"math/rand"

	"repro/internal/deploy"
	"repro/internal/forwarding"
	"repro/internal/network"
	"repro/internal/stats"
)

// Fig56 reproduces the paper's §5.1.2 drawback discussion around Figure
// 5.6 quantitatively. It reports, over heterogeneous random networks for
// each mean degree:
//
//   - the average fraction of the source's 2-hop neighbors covered by the
//     skyline forwarding set (1.0 would mean the drawback never occurs);
//   - the fraction of point sets in which the skyline set misses at least
//     one 2-hop neighbor;
//   - the average extra relays the repair extension (X1) adds on top of
//     the skyline set to restore guaranteed coverage.
//
// The deterministic Figure 5.6 construction itself is validated in the
// test suite and demonstrated in examples/heterogeneous.
func Fig56(cfg Config) (Figure, error) {
	cfg = cfg.normalized()
	coverage := Series{Label: "skyline 2-hop coverage"}
	missRate := Series{Label: "point sets with a miss"}
	extras := Series{Label: "repair extra relays"}
	for _, degree := range cfg.Degrees {
		covs := make([]float64, cfg.Replications)
		misses := make([]float64, cfg.Replications)
		extra := make([]float64, cfg.Replications)
		dcfg := deploy.PaperConfig(deploy.Heterogeneous, degree)
		err := forEachReplication(cfg, func(rep int, rng *rand.Rand) error {
			nodes, err := deploy.Generate(dcfg, rng)
			if err != nil {
				return err
			}
			g, err := network.Build(nodes, network.Bidirectional)
			if err != nil {
				return err
			}
			sky, err := (forwarding.Skyline{}).Select(g, 0)
			if err != nil {
				return err
			}
			cov := forwarding.CoverageRatio(g, 0, sky)
			covs[rep] = cov
			if cov < 1 {
				misses[rep] = 1
			}
			rep2, err := (forwarding.SkylineRepair{}).Select(g, 0)
			if err != nil {
				return err
			}
			extra[rep] = float64(len(rep2) - len(sky))
			return nil
		})
		if err != nil {
			return Figure{}, err
		}
		coverage.X = append(coverage.X, degree)
		coverage.Y = append(coverage.Y, mean(covs))
		missRate.X = append(missRate.X, degree)
		missRate.Y = append(missRate.Y, mean(misses))
		extras.X = append(extras.X, degree)
		extras.Y = append(extras.Y, mean(extra))
	}
	return Figure{
		ID:     "fig5.6",
		Title:  "Skyline 2-hop coverage drawback in heterogeneous networks",
		XLabel: "mean 1-hop neighbors",
		YLabel: "ratio / count",
		Series: []Series{coverage, missRate, extras},
		Notes: []string{
			"paper: qualitative only (Figure 5.6 construction); the exact construction is Fig56Graph",
			"repair extra relays is the X1 future-work extension's overhead",
		},
	}, nil
}

func mean(xs []float64) float64 {
	var s stats.Summary
	for _, x := range xs {
		s.Add(x)
	}
	return s.Mean()
}
