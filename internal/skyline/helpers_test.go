package skyline

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// randomLocalSet generates n disks that all contain the origin, with radii
// in [1, 2] as in the paper's heterogeneous networks.
func randomLocalSet(rng *rand.Rand, n int) []geom.Disk {
	disks := make([]geom.Disk, n)
	for i := range disks {
		r := 1 + rng.Float64()
		dist := rng.Float64() * r * 0.999
		theta := rng.Float64() * geom.TwoPi
		disks[i] = geom.Disk{C: geom.Unit(theta).Scale(dist), R: r}
	}
	return disks
}

// randomHomogeneousSet generates n unit disks that all contain the origin,
// as in the paper's homogeneous networks.
func randomHomogeneousSet(rng *rand.Rand, n int) []geom.Disk {
	disks := make([]geom.Disk, n)
	for i := range disks {
		dist := rng.Float64() * 0.999
		theta := rng.Float64() * geom.TwoPi
		disks[i] = geom.Disk{C: geom.Unit(theta).Scale(dist), R: 1}
	}
	return disks
}

// section41Disks builds the paper's §4.1 construction: k unit disks whose
// centers are spread evenly on a circle of radius 1/2 around the hub, plus
// a central disk whose radius lies strictly between ‖o − p‖ (the distance
// from the hub to the outer intersection points of adjacent unit disks)
// and 3/2. The central disk contributes k disjoint skyline arcs.
func section41Disks(k int) []geom.Disk {
	disks := make([]geom.Disk, 0, k+1)
	for i := 0; i < k; i++ {
		theta := geom.TwoPi * float64(i) / float64(k)
		disks = append(disks, geom.Disk{C: geom.Unit(theta).Scale(0.5), R: 1})
	}
	op := 0.5*math.Cos(math.Pi/float64(k)) +
		math.Sqrt(1-math.Pow(0.5*math.Sin(math.Pi/float64(k)), 2))
	disks = append(disks, geom.Disk{C: geom.Pt(0, 0), R: (op + 1.5) / 2})
	return disks
}

// diskAt returns the disk index active on the skyline at angle theta.
func (s Skyline) diskAt(theta float64) int { return s[s.At(theta)].Disk }

// envelopeValue evaluates the skyline's radial distance at theta.
func envelopeValue(disks []geom.Disk, s Skyline, theta float64) float64 {
	return disks[s.diskAt(theta)].RayDist(theta)
}

// checkEnvelope verifies that the skyline matches the true upper envelope
// max_i ρ_i(θ) at a battery of probe angles: fixed samples plus the
// midpoints of every arc of the skyline itself.
func checkEnvelope(t *testing.T, disks []geom.Disk, s Skyline, label string) {
	t.Helper()
	if err := s.Validate(len(disks)); err != nil {
		t.Fatalf("%s: invalid skyline: %v", label, err)
	}
	probes := make([]float64, 0, 256+len(s))
	for k := 0; k < 256; k++ {
		probes = append(probes, float64(k)/256*geom.TwoPi)
	}
	for _, a := range s {
		probes = append(probes, (a.Start+a.End)/2)
	}
	for _, theta := range probes {
		want, _ := rho(disks, theta)
		got := envelopeValue(disks, s, theta)
		if math.Abs(got-want) > 1e-6*(1+want) {
			t.Fatalf("%s: envelope mismatch at θ=%.9f: skyline gives %.12f (disk %d), max is %.12f",
				label, theta, got, s.diskAt(theta), want)
		}
	}
}

// sameEnvelope verifies that two skylines over the same disks describe the
// same radial function, probing arc midpoints of both.
func sameEnvelope(t *testing.T, disks []geom.Disk, a, b Skyline, label string) {
	t.Helper()
	probes := make([]float64, 0, len(a)+len(b))
	for _, arc := range a {
		probes = append(probes, (arc.Start+arc.End)/2)
	}
	for _, arc := range b {
		probes = append(probes, (arc.Start+arc.End)/2)
	}
	for _, theta := range probes {
		va := envelopeValue(disks, a, theta)
		vb := envelopeValue(disks, b, theta)
		if math.Abs(va-vb) > 1e-6*(1+va) {
			t.Fatalf("%s: envelopes differ at θ=%.9f: %.12f vs %.12f", label, theta, va, vb)
		}
	}
}

// sameSet verifies two integer slices are equal.
func sameSet(t *testing.T, got, want []int, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: set = %v, want %v", label, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: set = %v, want %v", label, got, want)
		}
	}
}

// computeRange computes the skyline of disks[lo:hi], with disk indices
// into the whole slice, into a fresh slice using a pooled Scratch. The
// merge tests build their two input halves with it.
func computeRange(disks []geom.Disk, lo, hi int) Skyline {
	sc := getScratch()
	view := sc.compute(disks, lo, hi, nil)
	out := make(Skyline, len(view))
	copy(out, view)
	putScratch(sc)
	return out
}
