package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/geom"
	"repro/internal/skyline"
)

// Scaling validates Theorem 9 empirically: the divide-and-conquer skyline
// runs in O(n log n). For each input size it times Compute on random
// heterogeneous local disk sets and records the skyline arc count against
// Lemma 8's 2n bound. The reported series are the per-run time in
// microseconds and the normalized time t/(n·log₂ n) in nanoseconds, which
// should approach a constant for an O(n log n) algorithm.
func Scaling(cfg Config, sizes []int) (Figure, error) {
	cfg = cfg.normalized()
	if len(sizes) == 0 {
		sizes = []int{64, 128, 256, 512, 1024, 2048, 4096}
	}
	dnc := Series{Label: "dnc µs"}
	norm := Series{Label: "dnc ns/(n·lg n)"}
	arcs := Series{Label: "arcs / 2n"}

	rng := rand.New(rand.NewSource(cfg.Seed))
	reps := cfg.Replications
	if reps > 20 {
		reps = 20 // timing runs need far fewer replications than statistics
	}
	for _, n := range sizes {
		var tDnc time.Duration
		arcRatio := 0.0
		for rep := 0; rep < reps; rep++ {
			disks := randomLocalDisks(rng, n)
			start := time.Now()
			sl, err := skyline.Compute(disks)
			if err != nil {
				return Figure{}, err
			}
			tDnc += time.Since(start)
			arcRatio += float64(sl.ArcCount()) / float64(2*n)
			if sl.ArcCount() > 2*n {
				return Figure{}, fmt.Errorf("scaling: Lemma 8 violated at n=%d: %d arcs", n, sl.ArcCount())
			}
		}
		x := float64(n)
		dnc.X = append(dnc.X, x)
		dnc.Y = append(dnc.Y, float64(tDnc.Microseconds())/float64(reps))
		norm.X = append(norm.X, x)
		norm.Y = append(norm.Y, float64(tDnc.Nanoseconds())/float64(reps)/(x*math.Log2(x)))
		arcs.X = append(arcs.X, x)
		arcs.Y = append(arcs.Y, arcRatio/float64(reps))
	}
	return Figure{
		ID:     "scaling",
		Title:  "Skyline runtime scaling (Theorem 9) and arc bound (Lemma 8)",
		XLabel: "disks n",
		YLabel: "time / ratio",
		Series: []Series{dnc, norm, arcs},
		Notes: []string{
			"dnc ns/(n·lg n) should flatten for an O(n log n) algorithm",
			"arcs/2n stays ≤ 1 per Lemma 8 (typically far below: most disks are buried)",
		},
	}, nil
}

// randomLocalDisks generates n disks containing the origin with radii in
// [1, 2] (the paper's heterogeneous model).
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
