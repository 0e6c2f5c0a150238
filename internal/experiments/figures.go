package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/deploy"
	"repro/internal/forwarding"
	"repro/internal/network"
	"repro/internal/stats"
)

// homogeneousSelectors are the five curves of Figure 5.1, top to bottom in
// the paper: blind flooding, skyline, selecting forwarding set
// (Călinescu), greedy, optimal.
func homogeneousSelectors() []forwarding.Selector {
	return []forwarding.Selector{
		forwarding.Flooding{},
		forwarding.Skyline{},
		forwarding.Calinescu{},
		forwarding.Greedy{},
		forwarding.Optimal{},
	}
}

// heterogeneousSelectors are the four curves of Figure 5.4: the Călinescu
// algorithm does not apply to heterogeneous networks (§5.1.2).
func heterogeneousSelectors() []forwarding.Selector {
	return []forwarding.Selector{
		forwarding.Flooding{},
		forwarding.Skyline{},
		forwarding.Greedy{},
		forwarding.Optimal{},
	}
}

// averageSizes measures the mean forwarding-set size of the source node
// over cfg.Replications random point sets, for every selector and every
// mean degree.
func averageSizes(cfg Config, model deploy.RadiusModel, selectors []forwarding.Selector) ([]Series, error) {
	cfg = cfg.normalized()
	series := make([]Series, len(selectors))
	for i, sel := range selectors {
		series[i] = Series{Label: sel.Name()}
	}
	for _, degree := range cfg.Degrees {
		// sizes[selector][replication]
		sizes := make([][]float64, len(selectors))
		for i := range sizes {
			sizes[i] = make([]float64, cfg.Replications)
		}
		dcfg := deploy.PaperConfig(model, degree)
		err := forEachReplication(cfg, func(rep int, rng *rand.Rand) error {
			nodes, err := deploy.Generate(dcfg, rng)
			if err != nil {
				return err
			}
			g, err := network.Build(nodes, network.Bidirectional)
			if err != nil {
				return err
			}
			for i, sel := range selectors {
				set, err := sel.Select(g, 0)
				if err != nil {
					return fmt.Errorf("%s at degree %g: %w", sel.Name(), degree, err)
				}
				sizes[i][rep] = float64(len(set))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for i := range selectors {
			var sum stats.Summary
			for _, v := range sizes[i] {
				sum.Add(v)
			}
			series[i].X = append(series[i].X, degree)
			series[i].Y = append(series[i].Y, sum.Mean())
			series[i].Err = append(series[i].Err, sum.StdErr())
		}
	}
	return series, nil
}

// Fig51 reproduces Figure 5.1: average forwarding-set size versus mean
// 1-hop degree in homogeneous networks, for all five algorithms.
func Fig51(cfg Config) (Figure, error) {
	series, err := averageSizes(cfg, deploy.Homogeneous, homogeneousSelectors())
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "fig5.1",
		Title:  "Average forwarding-set size, homogeneous networks (r = 1)",
		XLabel: "mean 1-hop neighbors",
		YLabel: "average forward nodes",
		Series: series,
		Notes: []string{
			"paper: curves top-to-bottom are flooding, skyline, selecting-forwarding-set, greedy, optimal",
		},
	}, nil
}

// Fig54 reproduces Figure 5.4: the heterogeneous (r ∈ U[1,2]) counterpart
// with four algorithms.
func Fig54(cfg Config) (Figure, error) {
	series, err := averageSizes(cfg, deploy.Heterogeneous, heterogeneousSelectors())
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "fig5.4",
		Title:  "Average forwarding-set size, heterogeneous networks (r ∈ U[1,2])",
		XLabel: "mean 1-hop neighbors",
		YLabel: "average forward nodes",
		Series: series,
		Notes: []string{
			"paper: curves top-to-bottom are flooding, skyline, greedy, optimal",
			"node density calibrated to E[min(Ri,Rj)²] = 11/6; see docs/DESIGN.md",
		},
	}, nil
}

// distribution measures the histogram of forwarding-set sizes of the
// source node at one mean degree — the paper's Figures 5.2, 5.3, and 5.5.
func distribution(cfg Config, model deploy.RadiusModel, degree float64, selectors []forwarding.Selector) ([]Series, error) {
	cfg = cfg.normalized()
	sizes := make([][]int, len(selectors))
	for i := range sizes {
		sizes[i] = make([]int, cfg.Replications)
	}
	dcfg := deploy.PaperConfig(model, degree)
	err := forEachReplication(cfg, func(rep int, rng *rand.Rand) error {
		nodes, err := deploy.Generate(dcfg, rng)
		if err != nil {
			return err
		}
		g, err := network.Build(nodes, network.Bidirectional)
		if err != nil {
			return err
		}
		for i, sel := range selectors {
			set, err := sel.Select(g, 0)
			if err != nil {
				return err
			}
			sizes[i][rep] = len(set)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Shared support across selectors so the series align.
	maxSize := 0
	for _, ss := range sizes {
		for _, v := range ss {
			if v > maxSize {
				maxSize = v
			}
		}
	}
	series := make([]Series, len(selectors))
	for i, sel := range selectors {
		h := stats.NewHistogram()
		for _, v := range sizes[i] {
			h.Add(v)
		}
		s := Series{Label: sel.Name()}
		for v := 0; v <= maxSize; v++ {
			s.X = append(s.X, float64(v))
			s.Y = append(s.Y, float64(h.Count(v)))
		}
		series[i] = s
	}
	return series, nil
}

// Fig52 reproduces Figure 5.2: the distribution of forwarding-set sizes in
// homogeneous networks with mean degree 10.
func Fig52(cfg Config) (Figure, error) {
	series, err := distribution(cfg, deploy.Homogeneous, 10, homogeneousSelectors())
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "fig5.2",
		Title:  "Forwarding-set size distribution, homogeneous, mean degree 10",
		XLabel: "forward nodes",
		YLabel: "number of point sets",
		Series: series,
	}, nil
}

// Fig53 reproduces Figure 5.3: as Figure 5.2 with mean degree 20.
func Fig53(cfg Config) (Figure, error) {
	series, err := distribution(cfg, deploy.Homogeneous, 20, homogeneousSelectors())
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "fig5.3",
		Title:  "Forwarding-set size distribution, homogeneous, mean degree 20",
		XLabel: "forward nodes",
		YLabel: "number of point sets",
		Series: series,
	}, nil
}

// Fig55 reproduces Figure 5.5: the distribution in heterogeneous networks
// with mean degree 10.
func Fig55(cfg Config) (Figure, error) {
	series, err := distribution(cfg, deploy.Heterogeneous, 10, heterogeneousSelectors())
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "fig5.5",
		Title:  "Forwarding-set size distribution, heterogeneous, mean degree 10",
		XLabel: "forward nodes",
		YLabel: "number of point sets",
		Series: series,
	}, nil
}
