package skyline

import (
	"math"
	"testing"

	"repro/internal/geom"
)

// Two unit disks centered at (±a, 0) with 0 < a < 1: their circles meet at
// (0, ±√(1−a²)), so the skyline breakpoints sit exactly at π/2 and 3π/2,
// with the right disk owning (−π/2, π/2) and the left one the rest.
func TestGoldenTwoSymmetricDisks(t *testing.T) {
	for _, a := range []float64{0.2, 0.5, 0.9} {
		disks := []geom.Disk{
			geom.NewDisk(a, 0, 1),  // 0: right
			geom.NewDisk(-a, 0, 1), // 1: left
		}
		sl, err := Compute(disks)
		if err != nil {
			t.Fatal(err)
		}
		if len(sl) != 3 {
			t.Fatalf("a=%g: got %d stored arcs, want 3 (split at 0): %v", a, len(sl), sl)
		}
		wantArcs := []struct {
			start, end float64
			disk       int
		}{
			{0, math.Pi / 2, 0},
			{math.Pi / 2, 3 * math.Pi / 2, 1},
			{3 * math.Pi / 2, geom.TwoPi, 0},
		}
		for i, w := range wantArcs {
			if sl[i].Disk != w.disk {
				t.Errorf("a=%g arc %d: disk %d, want %d", a, i, sl[i].Disk, w.disk)
			}
			if math.Abs(sl[i].Start-w.start) > 1e-9 || math.Abs(sl[i].End-w.end) > 1e-9 {
				t.Errorf("a=%g arc %d: [%.12f, %.12f], want [%.12f, %.12f]",
					a, i, sl[i].Start, sl[i].End, w.start, w.end)
			}
		}
		// Envelope values at the cardinal directions are analytic:
		// ρ(0) = a + 1, ρ(π) = a + 1, ρ(π/2) = √(1−a²).
		if got := envelopeValue(disks, sl, 0); math.Abs(got-(a+1)) > 1e-12 {
			t.Errorf("a=%g: ρ(0) = %.15f, want %.15f", a, got, a+1)
		}
		if got := envelopeValue(disks, sl, math.Pi); math.Abs(got-(a+1)) > 1e-12 {
			t.Errorf("a=%g: ρ(π) = %.15f, want %.15f", a, got, a+1)
		}
		want := math.Sqrt(1 - a*a)
		if got := envelopeValue(disks, sl, math.Pi/2); math.Abs(got-want) > 1e-9 {
			t.Errorf("a=%g: ρ(π/2) = %.15f, want %.15f", a, got, want)
		}
	}
}

// Three unit disks at angles 0, 2π/3, 4π/3 and equal distance from the
// hub: by symmetry the breakpoints are the bisector angles π/3, π, 5π/3.
func TestGoldenThreeSymmetricDisks(t *testing.T) {
	const dist = 0.6
	disks := make([]geom.Disk, 3)
	for i := range disks {
		theta := geom.TwoPi * float64(i) / 3
		disks[i] = geom.Disk{C: geom.Unit(theta).Scale(dist), R: 1}
	}
	sl, err := Compute(disks)
	if err != nil {
		t.Fatal(err)
	}
	if got := sl.ArcCount(); got != 3 {
		t.Fatalf("ArcCount = %d, want 3", got)
	}
	// Stored (split) representation: disk 0 on [0, π/3] and [5π/3, 2π],
	// disk 1 on [π/3, π], disk 2 on [π, 5π/3].
	wantBreaks := []float64{math.Pi / 3, math.Pi, 5 * math.Pi / 3}
	var gotBreaks []float64
	for _, arc := range sl[:len(sl)-1] {
		gotBreaks = append(gotBreaks, arc.End)
	}
	if len(gotBreaks) != 3 {
		t.Fatalf("breakpoints %v, want 3 interior breaks", gotBreaks)
	}
	for i, w := range wantBreaks {
		if math.Abs(gotBreaks[i]-w) > 1e-9 {
			t.Errorf("breakpoint %d = %.12f, want %.12f", i, gotBreaks[i], w)
		}
	}
	for theta, wantDisk := range map[float64]int{0.1: 0, 2.0: 1, 4.0: 2, 6.0: 0} {
		if got := sl.diskAt(theta); got != wantDisk {
			t.Errorf("diskAt(%g) = %d, want %d", theta, got, wantDisk)
		}
	}
}

// A hub-centered disk strictly dominating others: skyline is one arc with
// ρ constant.
func TestGoldenDominatingDisk(t *testing.T) {
	disks := []geom.Disk{
		geom.NewDisk(0.3, 0.2, 1),
		geom.NewDisk(0, 0, 3),
		geom.NewDisk(-0.4, 0.1, 1.2),
	}
	sl, err := Compute(disks)
	if err != nil {
		t.Fatal(err)
	}
	if len(sl) != 1 || sl[0].Disk != 1 {
		t.Fatalf("skyline = %v, want single arc of disk 1", sl)
	}
	for _, theta := range []float64{0, 1, 2, 3, 4, 5, 6} {
		if got := envelopeValue(disks, sl, theta); math.Abs(got-3) > 1e-12 {
			t.Errorf("ρ(%g) = %.15f, want 3", theta, got)
		}
	}
}

// The exact area of the two-symmetric-disk union has a closed form; check
// Area against it at several separations (complements the MC cross-check).
func TestGoldenTwoDiskArea(t *testing.T) {
	for _, a := range []float64{0.2, 0.5, 0.9} {
		disks := []geom.Disk{geom.NewDisk(a, 0, 1), geom.NewDisk(-a, 0, 1)}
		sl, err := Compute(disks)
		if err != nil {
			t.Fatal(err)
		}
		d := 2 * a
		inter := 2*math.Acos(d/2) - d/2*math.Sqrt(4-d*d)
		want := 2*math.Pi - inter
		if got := sl.Area(disks); math.Abs(got-want) > 1e-9 {
			t.Errorf("a=%g: area %.12f, want %.12f", a, got, want)
		}
	}
}
