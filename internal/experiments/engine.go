package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/deploy"
	"repro/internal/engine"
	"repro/internal/mldcs"
	"repro/internal/network"
)

// EngineScaling compares the batched whole-network engine against the
// sequential per-node pipeline (network.Build + Graph.LocalSet +
// mldcs.Solve) across network sizes at the paper's heterogeneous density.
// For each size it reports both wall times and the speedup, and it
// verifies on every replication that the two pipelines produce
// element-identical forwarding sets — the experiment doubles as a
// large-scale differential test.
func EngineScaling(cfg Config, sizes []int) (Figure, error) {
	cfg = cfg.normalized()
	if len(sizes) == 0 {
		sizes = []int{1000, 3000, 10000}
	}
	const degree = 10
	seq := Series{Label: "sequential ms"}
	eng := Series{Label: "engine ms"}
	speedup := Series{Label: "speedup ×"}

	reps := cfg.Replications
	if reps > 5 {
		reps = 5 // timing runs need far fewer replications than statistics
	}
	for _, n := range sizes {
		dcfg := deploy.PaperConfig(deploy.Heterogeneous, degree)
		// Invert NodeCount: scale the region so the calibrated density
		// yields ≈ n nodes at the target degree.
		dcfg.Side = math.Sqrt(float64(n) * math.Pi * dcfg.ExpectedMinRadiusSq() / degree)
		var tSeq, tEng time.Duration
		for rep := 0; rep < reps; rep++ {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(rep)))
			nodes, err := deploy.Generate(dcfg, rng)
			if err != nil {
				return Figure{}, err
			}

			start := time.Now()
			fwd, err := sequentialForwardingSets(nodes)
			if err != nil {
				return Figure{}, err
			}
			tSeq += time.Since(start)

			e := engine.New(engine.Config{Workers: cfg.Workers})
			start = time.Now()
			res, err := e.Compute(nodes)
			if err != nil {
				return Figure{}, err
			}
			tEng += time.Since(start)

			for u := range nodes {
				if !intsEqual(res.Forwarding[u], fwd[u]) {
					return Figure{}, fmt.Errorf(
						"engine-scaling: n=%d rep=%d node %d: engine %v != sequential %v",
						n, rep, u, res.Forwarding[u], fwd[u])
				}
			}
		}
		x := float64(n)
		seq.X = append(seq.X, x)
		seq.Y = append(seq.Y, float64(tSeq.Milliseconds())/float64(reps))
		eng.X = append(eng.X, x)
		eng.Y = append(eng.Y, float64(tEng.Milliseconds())/float64(reps))
		speedup.X = append(speedup.X, x)
		if tEng > 0 {
			speedup.Y = append(speedup.Y, float64(tSeq)/float64(tEng))
		} else {
			speedup.Y = append(speedup.Y, 0)
		}
	}
	return Figure{
		ID:     "engine-scaling",
		Title:  "Whole-network engine vs sequential per-node MLDCS",
		XLabel: "nodes n",
		YLabel: "time / ratio",
		Series: []Series{seq, eng, speedup},
		Notes: []string{
			fmt.Sprintf("engine ran with %d workers; speedup scales with cores (sequential baseline is single-threaded)", cfg.Workers),
			"every replication cross-checked element-identical forwarding sets",
		},
	}, nil
}

// sequentialForwardingSets is the pre-engine reference pipeline, timed as a
// unit: graph construction plus one mldcs.Solve per node.
func sequentialForwardingSets(nodes []network.Node) ([][]int, error) {
	g, err := network.Build(nodes, network.Bidirectional)
	if err != nil {
		return nil, err
	}
	fwd := make([][]int, g.Len())
	for u := 0; u < g.Len(); u++ {
		ls, ids, err := g.LocalSet(u)
		if err != nil {
			return nil, err
		}
		r, err := mldcs.Solve(ls)
		if err != nil {
			return nil, err
		}
		set := make([]int, 0, len(r.Cover))
		for _, i := range r.NeighborCover() {
			set = append(set, ids[i])
		}
		fwd[u] = set
	}
	return fwd, nil
}

func intsEqual(a, b []int) bool {
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
