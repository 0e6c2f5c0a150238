package skyline

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// Degenerate and adversarial configurations: the merge's crossing logic
// must survive tangencies, near-coincident disks, extreme radius ratios,
// and clustered breakpoint angles. Each case checks validity, the Lemma 8
// bound, and envelope correctness via the shared helper.

func checkAllAlgorithms(t *testing.T, disks []geom.Disk, label string) {
	t.Helper()
	var first Skyline
	for _, alg := range algorithms {
		s, err := alg.fn(disks)
		if err != nil {
			t.Fatalf("%s/%s: %v", label, alg.name, err)
		}
		checkEnvelope(t, disks, s, label+"/"+alg.name)
		if s.ArcCount() > 2*len(disks) {
			t.Errorf("%s/%s: arc bound violated: %d > 2·%d",
				label, alg.name, s.ArcCount(), len(disks))
		}
		if first == nil {
			first = s
		} else {
			sameEnvelope(t, disks, first, s, label+"/"+alg.name)
		}
	}
}

func TestRobustExternallyTangentPair(t *testing.T) {
	// Two disks tangent at the origin-side: their circles touch at exactly
	// one point on the far side of the hub.
	disks := []geom.Disk{
		geom.NewDisk(0.5, 0, 1.5),
		geom.NewDisk(-0.5, 0, 1.5),
	}
	checkAllAlgorithms(t, disks, "tangent-pair")
}

func TestRobustNearCoincidentDisks(t *testing.T) {
	base := geom.NewDisk(0.3, 0.1, 1.2)
	disks := []geom.Disk{
		base,
		{C: base.C.Add(geom.Pt(1e-12, 0)), R: base.R},
		{C: base.C, R: base.R + 1e-12},
		{C: base.C.Add(geom.Pt(0, -1e-12)), R: base.R - 1e-12},
	}
	checkAllAlgorithms(t, disks, "near-coincident")
}

func TestRobustExtremeRadiusRatio(t *testing.T) {
	disks := []geom.Disk{
		geom.NewDisk(0, 0, 1e-3),
		geom.NewDisk(5e-4, 0, 1e-3),
		geom.NewDisk(0, 0, 1e3),
		geom.NewDisk(400, 0, 1e3),
	}
	checkAllAlgorithms(t, disks, "extreme-ratio")
}

func TestRobustClusteredAngles(t *testing.T) {
	// Many disks whose centers sit within a tiny angular wedge: all the
	// skyline action happens in a micro-interval plus one huge arc.
	rng := rand.New(rand.NewSource(601))
	disks := make([]geom.Disk, 24)
	for i := range disks {
		theta := 1e-6 * rng.Float64()
		r := 1 + rng.Float64()
		disks[i] = geom.Disk{C: geom.Unit(theta).Scale(rng.Float64() * r * 0.9), R: r}
	}
	checkAllAlgorithms(t, disks, "clustered-angles")
}

func TestRobustCentersOnLine(t *testing.T) {
	// Collinear centers through the hub: every pairwise crossing is at
	// angles ±π/2-symmetric configurations, maximal tie pressure.
	disks := make([]geom.Disk, 0, 12)
	for i := 1; i <= 6; i++ {
		x := float64(i) * 0.15
		disks = append(disks,
			geom.Disk{C: geom.Pt(x, 0), R: 1 + 0.1*float64(i)},
			geom.Disk{C: geom.Pt(-x, 0), R: 1 + 0.1*float64(i)},
		)
	}
	checkAllAlgorithms(t, disks, "collinear")
}

func TestRobustHubOnBoundary(t *testing.T) {
	// Disks whose boundary passes exactly through the hub (‖c‖ == r): the
	// envelope touches zero at one angle.
	disks := []geom.Disk{
		{C: geom.Pt(0.5, 0), R: 0.5},
		{C: geom.Pt(-0.3, 0.4), R: 0.5},
		{C: geom.Pt(0, -0.7), R: 0.7},
	}
	checkAllAlgorithms(t, disks, "hub-on-boundary")
}

func TestRobustRegularPolygonRings(t *testing.T) {
	// Concentric rings of equal disks: heavy symmetry, many simultaneous
	// crossings at identical envelope values.
	var disks []geom.Disk
	for ring := 1; ring <= 3; ring++ {
		k := 4 * ring
		dist := 0.2 * float64(ring)
		for i := 0; i < k; i++ {
			theta := geom.TwoPi * float64(i) / float64(k)
			disks = append(disks, geom.Disk{C: geom.Unit(theta).Scale(dist), R: 1})
		}
	}
	checkAllAlgorithms(t, disks, "rings")
}

func TestRobustManyDuplicatesPlusOne(t *testing.T) {
	d := geom.NewDisk(0.2, 0.3, 1.1)
	disks := make([]geom.Disk, 0, 17)
	for i := 0; i < 16; i++ {
		disks = append(disks, d)
	}
	disks = append(disks, geom.NewDisk(-0.5, 0, 1.4))
	checkAllAlgorithms(t, disks, "duplicates")
	sl, err := Compute(disks)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sl.Set()); got != 2 {
		t.Errorf("skyline set size %d, want 2 (16 duplicates collapse to one)", got)
	}
}

func TestRobustLargeRandomStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	rng := rand.New(rand.NewSource(602))
	for _, n := range []int{500, 2000} {
		disks := randomLocalSet(rng, n)
		sl, err := Compute(disks)
		if err != nil {
			t.Fatal(err)
		}
		if err := sl.Validate(n); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if sl.ArcCount() > 2*n {
			t.Fatalf("n=%d: arc bound violated", n)
		}
		// Spot-check the envelope.
		for k := 0; k < 200; k++ {
			theta := rng.Float64() * geom.TwoPi
			got := sl.radialDistance(disks, theta)
			want, _ := rho(disks, theta)
			if math.Abs(got-want) > 1e-6*(1+want) {
				t.Fatalf("n=%d: envelope mismatch at θ=%v", n, theta)
			}
		}
	}
}
