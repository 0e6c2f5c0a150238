package skyline

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
)

// without returns a copy of disks with index rm removed (order preserved).
func without(disks []geom.Disk, rm int) []geom.Disk {
	out := make([]geom.Disk, 0, len(disks)-1)
	out = append(out, disks[:rm]...)
	return append(out, disks[rm+1:]...)
}

// checkEnvelopeExcept asserts that sl (indexing into disks, never rm) is
// the upper envelope of all disks except rm, probing a fixed battery plus
// every arc midpoint.
func checkEnvelopeExcept(t *testing.T, label string, disks []geom.Disk, sl Skyline, rm int) {
	t.Helper()
	if err := sl.Validate(len(disks)); err != nil {
		t.Fatalf("%s: invalid repaired skyline: %v", label, err)
	}
	probes := make([]float64, 0, 720+len(sl))
	for i := 0; i < 720; i++ {
		probes = append(probes, float64(i)*geom.TwoPi/720)
	}
	for _, a := range sl {
		if a.Disk == rm {
			t.Fatalf("%s: removed disk %d still owns arc %v", label, rm, a)
		}
		probes = append(probes, (a.Start+a.End)/2)
	}
	for _, theta := range probes {
		got := disks[sl.DiskAt(theta)].RayDist(theta)
		want := math.Inf(-1)
		for i, d := range disks {
			if i == rm {
				continue
			}
			if r := d.RayDist(theta); r > want {
				want = r
			}
		}
		if math.Abs(got-want) > 1e-6*(1+want) {
			t.Fatalf("%s: envelope mismatch at θ=%v: got %v want %v", label, theta, got, want)
		}
	}
}

// remapAfterRemove translates a repaired skyline's original disk indices to
// the compacted indexing of the slice with rm deleted.
func remapAfterRemove(sl Skyline, rm int) Skyline {
	out := make(Skyline, len(sl))
	for i, a := range sl {
		if a.Disk > rm {
			a.Disk--
		}
		out[i] = a
	}
	return out
}

// requireSameSet asserts the two skylines contribute the same disk set.
func requireSameSet(t *testing.T, label string, got, want Skyline) {
	t.Helper()
	gs := got.Set()
	ws := want.Set()
	if !reflect.DeepEqual(gs, ws) {
		t.Errorf("%s: skyline set diverged\n got %v (%v)\nwant %v (%v)", label, gs, got, ws, want)
	}
}

// RemoveDiskInto must reproduce the envelope of the surviving disks, and —
// whenever the surgery reported no degenerate decision — the exact skyline
// set a from-scratch compute produces.
func TestRemoveDiskMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(701))
	var sc Scratch
	for _, n := range []int{2, 3, 5, 9, 17, 33} {
		for trial := 0; trial < 8; trial++ {
			disks := randomLocalSet(rng, n)
			sl, err := Compute(disks)
			if err != nil {
				t.Fatal(err)
			}
			for _, rm := range []int{0, n / 2, n - 1} {
				tie := false
				got := sc.RemoveDiskInto(nil, disks, sl, rm, &tie)
				checkEnvelopeExcept(t, "RemoveDiskInto", disks, got, rm)
				if !tie {
					want, err := computeSortOracle(without(disks, rm))
					if err != nil {
						t.Fatal(err)
					}
					requireSameSet(t, "RemoveDiskInto", remapAfterRemove(got, rm), want)
				}
			}
		}
	}
}

// Same check on the structured families where removal hits interesting
// geometry: §4.1 (removing the central disk re-exposes the ring; removing a
// ring disk grows its neighbors), symmetric pairs, and duplicate disks.
func TestRemoveDiskStructured(t *testing.T) {
	cases := []struct {
		name  string
		disks []geom.Disk
		rm    int
	}{
		{"section41-central", section41Disks(9), 9},
		{"section41-ring", section41Disks(9), 3},
		{"two-symmetric", []geom.Disk{geom.NewDisk(0.5, 0, 1), geom.NewDisk(-0.5, 0, 1)}, 0},
		{"duplicates", []geom.Disk{geom.NewDisk(0.3, 0, 1), geom.NewDisk(0.3, 0, 1), geom.NewDisk(-0.2, 0.1, 1.5)}, 1},
		{"dominating", []geom.Disk{geom.NewDisk(0.2, 0.1, 1), geom.NewDisk(0, 0, 5), geom.NewDisk(-0.3, 0.2, 1.2)}, 1},
		{"hub-tangent", []geom.Disk{geom.NewDisk(0.5, 0, 0.5), geom.NewDisk(-0.25, 0, 0.25), geom.NewDisk(0, 0.4, 1)}, 2},
	}
	var sc Scratch
	for _, tc := range cases {
		sl, err := Compute(tc.disks)
		if err != nil {
			t.Fatal(err)
		}
		got := sc.RemoveDiskInto(nil, tc.disks, sl, tc.rm, nil)
		checkEnvelopeExcept(t, tc.name, tc.disks, got, tc.rm)
	}
}

// MoveDiskInto must reproduce the envelope of the set with the moved disk's new
// geometry, and the exact recomputed set when no tie was reported.
func TestMoveDiskMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(702))
	var sc Scratch
	for _, n := range []int{1, 2, 3, 5, 9, 17, 33} {
		for trial := 0; trial < 8; trial++ {
			disks := randomLocalSet(rng, n)
			sl, err := Compute(disks)
			if err != nil {
				t.Fatal(err)
			}
			mv := rng.Intn(n)
			// Perturb the disk: a small slide most of the time, a jump
			// sometimes, always still containing the hub.
			d := disks[mv]
			if trial%3 == 0 {
				d = randomLocalSet(rng, 1)[0]
			} else {
				scale := 0.05 * rng.Float64()
				c := d.C.Add(geom.Unit(rng.Float64() * geom.TwoPi).Scale(scale * d.R))
				if c.Norm() < d.R*0.999 {
					d.C = c
				}
			}
			disks[mv] = d

			tie := false
			got := sc.MoveDiskInto(nil, disks, sl, mv, &tie)
			checkEnvelopeExcept(t, "MoveDiskInto", disks, got, -1)
			if !tie {
				want, err := computeSortOracle(disks)
				if err != nil {
					t.Fatal(err)
				}
				requireSameSet(t, "MoveDiskInto", got, want)
			}
		}
	}
}

// MoveDiskInto on a skyline that holds no arc of the disk inserts it, and
// must be byte-identical to the incremental construction's insertion step,
// the Merge against the new disk's one-arc skyline.
func TestInsertDiskIntoMatchesInsertDisk(t *testing.T) {
	rng := rand.New(rand.NewSource(703))
	var sc Scratch
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		disks := randomLocalSet(rng, n)
		sl, err := Compute(disks[:n-1])
		if err != nil {
			t.Fatal(err)
		}
		want := insertDisk(disks, sl, n-1)
		got := sc.MoveDiskInto(nil, disks, sl, n-1, nil)
		requireSameSkyline(t, "MoveDiskInto insert", got, want)
	}
}

// A removal that leaves slivers or long tied stretches must still produce a
// structurally valid envelope; the tie flag tells the caller not to expect
// set-identity with a recompute.
func TestRemoveDiskTieFlag(t *testing.T) {
	// Three identical disks: removing one leaves the other two tied over
	// the whole freed span, so every comparison the re-exposure makes lands
	// within RhoEps — a textbook degenerate surgery.
	disks := []geom.Disk{
		geom.NewDisk(0.3, 0, 1),
		geom.NewDisk(0.3, 0, 1),
		geom.NewDisk(0.3, 0, 1),
	}
	sl, err := Compute(disks)
	if err != nil {
		t.Fatal(err)
	}
	var sc Scratch
	tie := false
	got := sc.RemoveDiskInto(nil, disks, sl, 0, &tie)
	checkEnvelopeExcept(t, "duplicate-removal", disks, got, 0)
	if !tie {
		t.Error("removing a duplicated disk should report a tie")
	}
}
