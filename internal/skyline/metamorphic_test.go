package skyline

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

// Metamorphic tests: apply input transformations with a known effect on the
// output — index permutations, rigid rotations about the hub, uniform
// scalings — and check the skyline responds exactly as the geometry says it
// must. These need no oracle, so they cross-check the algorithm on inputs
// where no independent answer is available.

// rotateDisks rotates every disk center by phi about the origin.
func rotateDisks(disks []geom.Disk, phi float64) []geom.Disk {
	c, s := math.Cos(phi), math.Sin(phi)
	out := make([]geom.Disk, len(disks))
	for i, d := range disks {
		out[i] = geom.Disk{
			C: geom.Pt(c*d.C.X-s*d.C.Y, s*d.C.X+c*d.C.Y),
			R: d.R,
		}
	}
	return out
}

// rotateDisksQuarter rotates every disk center by exactly π/2:
// (x, y) → (−y, x) is exact in floating point, so the rotated instance is
// bit-for-bit congruent to the original.
func rotateDisksQuarter(disks []geom.Disk) []geom.Disk {
	out := make([]geom.Disk, len(disks))
	for i, d := range disks {
		out[i] = geom.Disk{C: geom.Pt(-d.C.Y, d.C.X), R: d.R}
	}
	return out
}

// scaleDisks scales centers and radii uniformly by s about the origin.
func scaleDisks(disks []geom.Disk, s float64) []geom.Disk {
	out := make([]geom.Disk, len(disks))
	for i, d := range disks {
		out[i] = geom.Disk{C: d.C.Scale(s), R: d.R * s}
	}
	return out
}

// TestMetamorphicPermutation: relabeling the disks permutes the skyline set
// accordingly and leaves the envelope untouched.
func TestMetamorphicPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		disks := randomLocalSet(rng, 2+rng.Intn(30))
		base, err := Compute(disks)
		if err != nil {
			t.Fatal(err)
		}
		perm := rng.Perm(len(disks)) // perm[newIdx] = oldIdx
		inv := make([]int, len(disks))
		permuted := make([]geom.Disk, len(disks))
		for newIdx, oldIdx := range perm {
			permuted[newIdx] = disks[oldIdx]
			inv[oldIdx] = newIdx
		}
		got, err := Compute(permuted)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int, 0, len(base.Set()))
		for _, i := range base.Set() {
			want = append(want, inv[i])
		}
		sort.Ints(want)
		label := fmt.Sprintf("trial %d (n=%d)", trial, len(disks))
		sameSet(t, got.Set(), want, label)
		sameEnvelope(t, disks, base, permutedBack(got, perm), label)
	}
}

// permutedBack rewrites a skyline over permuted disks as a skyline over the
// original indices, so envelope helpers can evaluate it on the original
// disk slice. perm[newIdx] = oldIdx.
func permutedBack(s Skyline, perm []int) Skyline {
	out := append(Skyline(nil), s...)
	for i := range out {
		out[i].Disk = perm[out[i].Disk]
	}
	return out
}

// TestMetamorphicQuarterRotation: a quarter-turn is exact in float64, so
// the skyline set must be identical and the envelope must be the original
// envelope shifted by π/2.
func TestMetamorphicQuarterRotation(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 40; trial++ {
		disks := randomLocalSet(rng, 2+rng.Intn(30))
		base, err := Compute(disks)
		if err != nil {
			t.Fatal(err)
		}
		rotated := rotateDisksQuarter(disks)
		got, err := Compute(rotated)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("trial %d (n=%d)", trial, len(disks))
		sameSet(t, got.Set(), base.Set(), label)
		for _, a := range base {
			mid := (a.Start + a.End) / 2
			v0 := envelopeValue(disks, base, mid)
			v1 := envelopeValue(rotated, got, geom.NormalizeAngle(mid+math.Pi/2))
			if math.Abs(v0-v1) > 1e-9*(1+v0) {
				t.Fatalf("%s: envelope not shifted by π/2 at θ=%v: %v vs %v", label, mid, v0, v1)
			}
		}
	}
}

// TestMetamorphicGenericRotation: an arbitrary-angle rotation perturbs the
// coordinates by rounding, so the skyline set is compared as a set and the
// envelope and area only up to tolerance.
func TestMetamorphicGenericRotation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		disks := randomLocalSet(rng, 2+rng.Intn(30))
		base, err := Compute(disks)
		if err != nil {
			t.Fatal(err)
		}
		phi := rng.Float64() * geom.TwoPi
		rotated := rotateDisks(disks, phi)
		got, err := Compute(rotated)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("trial %d (n=%d, φ=%v)", trial, len(disks), phi)
		sameSet(t, got.Set(), base.Set(), label)
		if a0, a1 := base.Area(disks), got.Area(rotated); math.Abs(a0-a1) > 1e-6*(1+a0) {
			t.Fatalf("%s: area changed under rotation: %v vs %v", label, a0, a1)
		}
		for _, a := range base {
			mid := (a.Start + a.End) / 2
			v0 := envelopeValue(disks, base, mid)
			v1 := envelopeValue(rotated, got, geom.NormalizeAngle(mid+phi))
			if math.Abs(v0-v1) > 1e-6*(1+v0) {
				t.Fatalf("%s: envelope not rotated at θ=%v: %v vs %v", label, mid, v0, v1)
			}
		}
	}
}

// TestMetamorphicUniformScaling: scaling by a power of two is exact in
// float64, so the skyline set must be identical and the area must scale by
// s² (up to the quadrature's own tolerance). A non-dyadic factor is checked
// with tolerance.
func TestMetamorphicUniformScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 30; trial++ {
		disks := randomLocalSet(rng, 2+rng.Intn(30))
		base, err := Compute(disks)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []float64{2, 0.25, 1.7} {
			scaled := scaleDisks(disks, s)
			got, err := Compute(scaled)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("trial %d (n=%d, s=%g)", trial, len(disks), s)
			sameSet(t, got.Set(), base.Set(), label)
			if a0, a1 := base.Area(disks), got.Area(scaled); math.Abs(a1-s*s*a0) > 1e-6*(1+s*s*a0) {
				t.Fatalf("%s: area %v, want s²·%v = %v", label, a1, a0, s*s*a0)
			}
			for _, a := range base {
				mid := (a.Start + a.End) / 2
				v0 := envelopeValue(disks, base, mid)
				v1 := envelopeValue(scaled, got, mid)
				if math.Abs(v1-s*v0) > 1e-6*(1+s*v0) {
					t.Fatalf("%s: envelope at θ=%v is %v, want s·%v", label, mid, v1, v0)
				}
			}
		}
	}
}

// TestMetamorphicDegenerateSeeds runs the fuzz-style invariant checks on
// hand-built degenerate configurations: exact duplicates, concentric disks,
// cocircular centers, and internally tangent disks. These mirror the seeds
// checked into testdata/fuzz so the cases run under plain `go test` too.
func TestMetamorphicDegenerateSeeds(t *testing.T) {
	unit := geom.NewDisk(0, 0, 1)
	cases := []struct {
		name  string
		disks []geom.Disk
	}{
		{"duplicates", []geom.Disk{unit, unit, unit, geom.NewDisk(0.3, 0, 1.2)}},
		{"concentric", []geom.Disk{unit, geom.NewDisk(0, 0, 1.5), geom.NewDisk(0, 0, 2), geom.NewDisk(0, 0, 0.7)}},
		{"cocircular", func() []geom.Disk {
			var ds []geom.Disk
			for k := 0; k < 8; k++ {
				theta := geom.TwoPi * float64(k) / 8
				ds = append(ds, geom.Disk{C: geom.Unit(theta).Scale(0.5), R: 1})
			}
			return ds
		}()},
		{"tangent", []geom.Disk{ // hub on every boundary, tangencies inside
			geom.NewDisk(0, 0, 2),
			geom.NewDisk(1, 0, 1),
			geom.NewDisk(-0.5, 0, 1.5),
			geom.NewDisk(0, 0.6, 0.6),
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sl, err := Compute(c.disks)
			if err != nil {
				t.Fatal(err)
			}
			checkEnvelope(t, c.disks, sl, c.name)
			if sl.ArcCount() > 2*len(c.disks) {
				t.Fatalf("Lemma 8 violated: %d arcs for %d disks", sl.ArcCount(), len(c.disks))
			}
			nv, err := ComputeNaive(c.disks)
			if err != nil {
				t.Fatal(err)
			}
			sameEnvelope(t, c.disks, sl, nv, c.name)
		})
	}
}
