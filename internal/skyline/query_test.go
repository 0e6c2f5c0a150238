package skyline

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// radialDistance returns ρ(θ): the distance from the hub to the union's
// boundary along the ray at angle theta, read off the skyline in
// O(log n). disks must be the slice the skyline was computed over (hub
// frame).
func (s Skyline) radialDistance(disks []geom.Disk, theta float64) float64 {
	return disks[s.diskAt(theta)].RayDist(geom.NormalizeAngle(theta))
}

func TestRadialDistanceMatchesRho(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	disks := randomLocalSet(rng, 20)
	sl, err := Compute(disks)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 500; k++ {
		theta := rng.Float64() * geom.TwoPi
		got := sl.radialDistance(disks, theta)
		want, _ := rho(disks, theta)
		if math.Abs(got-want) > 1e-6*(1+want) {
			t.Fatalf("radialDistance(%v) = %v, Rho = %v", theta, got, want)
		}
	}
	// Angles outside [0, 2π) are normalized.
	if got, want := sl.radialDistance(disks, -1), sl.radialDistance(disks, geom.TwoPi-1); math.Abs(got-want) > 1e-12 {
		t.Errorf("normalization: %v vs %v", got, want)
	}
}
