package skyline

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestAreaSingleDisk(t *testing.T) {
	// Any single disk containing the origin: area must be πr² regardless
	// of where the hub sits inside it.
	cases := []geom.Disk{
		geom.NewDisk(0, 0, 1),
		geom.NewDisk(0.5, 0, 1),
		geom.NewDisk(0.3, -0.7, 1.5),
	}
	for _, d := range cases {
		sl, err := Compute([]geom.Disk{d})
		if err != nil {
			t.Fatal(err)
		}
		got := sl.Area([]geom.Disk{d})
		want := math.Pi * d.R * d.R
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("Area of %v = %.12f, want %.12f", d, got, want)
		}
	}
}

func TestAreaTwoDisksClosedForm(t *testing.T) {
	// Two unit disks with centers distance 1 apart (lens configuration):
	// union area = 2π − 2·lens/2 ... directly: union = 2πr² − intersection,
	// intersection of two unit circles at distance d:
	// 2r²·acos(d/2r) − (d/2)·sqrt(4r²−d²).
	d := 1.0
	inter := 2*math.Acos(d/2) - d/2*math.Sqrt(4-d*d)
	want := 2*math.Pi - inter
	disks := []geom.Disk{geom.NewDisk(-0.5, 0, 1), geom.NewDisk(0.5, 0, 1)}
	sl, err := Compute(disks)
	if err != nil {
		t.Fatal(err)
	}
	got := sl.Area(disks)
	if math.Abs(got-want) > 1e-9*want {
		t.Errorf("union area = %.12f, want %.12f", got, want)
	}
}

func TestAreaContainedDiskIgnored(t *testing.T) {
	disks := []geom.Disk{
		geom.NewDisk(0, 0, 2),
		geom.NewDisk(0.2, 0.1, 0.5), // strictly inside
	}
	sl, err := Compute(disks)
	if err != nil {
		t.Fatal(err)
	}
	got := sl.Area(disks)
	want := 4 * math.Pi
	if math.Abs(got-want) > 1e-9*want {
		t.Errorf("area = %.12f, want %.12f (inner disk contributes nothing)", got, want)
	}
}

// The exact skyline area must agree with Monte-Carlo estimation on random
// heterogeneous local sets — a cross-check that is independent of the
// skyline algorithms' geometry.
func TestAreaMatchesMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for trial := 0; trial < 10; trial++ {
		disks := randomLocalSet(rng, 2+rng.Intn(15))
		sl, err := Compute(disks)
		if err != nil {
			t.Fatal(err)
		}
		exact := sl.Area(disks)
		mc := geom.UnionAreaMC(disks, 400000, rng)
		if math.Abs(exact-mc)/exact > 0.02 {
			t.Errorf("trial %d: exact %.6f vs MC %.6f", trial, exact, mc)
		}
		// The union is at least as large as the biggest disk and at most
		// the sum of the disks.
		var maxA, sumA float64
		for _, d := range disks {
			a := math.Pi * d.R * d.R
			sumA += a
			if a > maxA {
				maxA = a
			}
		}
		if exact < maxA-1e-9 || exact > sumA+1e-9 {
			t.Errorf("trial %d: area %.6f outside [max disk %.6f, sum %.6f]",
				trial, exact, maxA, sumA)
		}
	}
}

// Theorem 3 in area form: the skyline set's union has the same exact area
// as the full union.
func TestAreaOfCoverEqualsAreaOfAll(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	for trial := 0; trial < 20; trial++ {
		disks := randomLocalSet(rng, 2+rng.Intn(20))
		sl, err := Compute(disks)
		if err != nil {
			t.Fatal(err)
		}
		full := sl.Area(disks)
		var cover []geom.Disk
		for _, i := range sl.Set() {
			cover = append(cover, disks[i])
		}
		slCover, err := Compute(cover)
		if err != nil {
			t.Fatal(err)
		}
		got := slCover.Area(cover)
		if math.Abs(got-full) > 1e-6*(1+full) {
			t.Errorf("trial %d: cover area %.9f != full area %.9f", trial, got, full)
		}
	}
}
