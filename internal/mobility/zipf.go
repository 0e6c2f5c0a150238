package mobility

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Zipf is a seeded inverse-CDF sampler over ranks 0..n-1 with weights
// proportional to 1/(k+1)^s. Rank 0 is the heaviest; s = 0 degenerates to
// the uniform distribution. Unlike math/rand's rand.Zipf it keeps the
// analytic CDF (the tests compare tail mass against it) and draws exactly
// one rng.Float64 per sample, which keeps workload generation reproducible
// draw-for-draw across refactors.
type Zipf struct {
	cum []float64 // cum[k] = P(rank ≤ k); cum[n-1] == 1
}

// NewZipf builds the sampler for n ranks with exponent s ≥ 0.
func NewZipf(n int, s float64) (*Zipf, error) {
	if n < 1 {
		return nil, fmt.Errorf("mobility: zipf needs ≥ 1 rank, got %d", n)
	}
	if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return nil, fmt.Errorf("mobility: zipf exponent %g must be finite and ≥ 0", s)
	}
	cum := make([]float64, n)
	total := 0.0
	for k := 0; k < n; k++ {
		total += math.Pow(float64(k+1), -s)
		cum[k] = total
	}
	for k := range cum {
		cum[k] /= total
	}
	cum[n-1] = 1 // exact upper bound regardless of rounding
	return &Zipf{cum: cum}, nil
}

// Rank draws one rank, consuming exactly one rng.Float64.
func (z *Zipf) Rank(rng *rand.Rand) int {
	u := rng.Float64()
	return sort.SearchFloat64s(z.cum, u)
}
