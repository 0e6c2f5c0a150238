package mldcs

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// randomLocalSet builds a valid LocalSet: a hub at an arbitrary position
// with radius r₀, and n neighbors placed within min(r₀, r_i) of the hub.
func randomLocalSet(rng *rand.Rand, n int, homogeneous bool) LocalSet {
	hubPos := geom.Pt(rng.Float64()*10-5, rng.Float64()*10-5)
	r0 := 1.0
	if !homogeneous {
		r0 = 1 + rng.Float64()
	}
	ls := LocalSet{Hub: geom.Disk{C: hubPos, R: r0}}
	for i := 0; i < n; i++ {
		ri := 1.0
		if !homogeneous {
			ri = 1 + rng.Float64()
		}
		maxDist := r0
		if ri < maxDist {
			maxDist = ri
		}
		dist := rng.Float64() * maxDist * 0.999
		theta := rng.Float64() * geom.TwoPi
		ls.Neighbors = append(ls.Neighbors, geom.Disk{
			C: hubPos.Add(geom.Unit(theta).Scale(dist)),
			R: ri,
		})
	}
	return ls
}

func TestValidateAccepts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		ls := randomLocalSet(rng, 1+rng.Intn(10), i%2 == 0)
		if err := ls.Validate(); err != nil {
			t.Fatalf("valid local set rejected: %v", err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	hub := geom.NewDisk(0, 0, 1)
	cases := []struct {
		name string
		ls   LocalSet
	}{
		{"neighbor out of hub range", LocalSet{hub, []geom.Disk{geom.NewDisk(2, 0, 5)}}},
		{"hub out of neighbor range", LocalSet{hub, []geom.Disk{geom.NewDisk(0.9, 0, 0.5)}}},
		{"bad hub radius", LocalSet{geom.NewDisk(0, 0, 0), nil}},
		{"bad neighbor radius", LocalSet{hub, []geom.Disk{geom.NewDisk(0, 0, -1)}}},
	}
	for _, c := range cases {
		err := c.ls.Validate()
		if err == nil {
			t.Errorf("%s: expected error", c.name)
		} else if !errors.Is(err, ErrNotLocalSet) {
			t.Errorf("%s: error %v is not ErrNotLocalSet", c.name, err)
		}
	}
}

func TestAllTranslatesToHubFrame(t *testing.T) {
	ls := LocalSet{
		Hub:       geom.NewDisk(3, 4, 2),
		Neighbors: []geom.Disk{geom.NewDisk(4, 4, 1.5)},
	}
	all := ls.All()
	if len(all) != 2 {
		t.Fatalf("All() returned %d disks", len(all))
	}
	if all[0].C != geom.Pt(0, 0) || all[0].R != 2 {
		t.Errorf("hub disk = %v, want centered at origin", all[0])
	}
	if all[1].C != geom.Pt(1, 0) {
		t.Errorf("neighbor disk = %v, want center (1, 0)", all[1])
	}
}

// Theorem 3: Solve's cover (the skyline set) must match the brute-force
// minimum cover computed by the algorithm-independent sampled oracle —
// both in size (minimality) and, because the MLDCS is unique, in content.
func TestTheorem3AgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		ls := randomLocalSet(rng, 1+rng.Intn(8), trial%2 == 0)
		r, err := Solve(ls)
		if err != nil {
			t.Fatal(err)
		}
		bf, err := bruteForceCover(ls, 2048)
		if err != nil {
			t.Fatal(err)
		}
		if len(bf) != len(r.Cover) {
			t.Fatalf("trial %d: skyline cover size %d != brute force %d\ncover=%v bf=%v",
				trial, len(r.Cover), len(bf), r.Cover, bf)
		}
		for i := range bf {
			if bf[i] != r.Cover[i] {
				t.Fatalf("trial %d: covers differ: %v vs %v", trial, r.Cover, bf)
			}
		}
	}
}

// The cover returned by Solve must actually cover (per the independent
// sampled oracle), and removing any element must break coverage
// (minimality witness per Theorem 3's exclusive-region argument).
func TestCoverIsMinimalCover(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 40; trial++ {
		ls := randomLocalSet(rng, 1+rng.Intn(12), trial%2 == 0)
		r, err := Solve(ls)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := isCoverSampled(ls, r.Cover, 2048)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("trial %d: skyline set %v is not a cover", trial, r.Cover)
		}
		for drop := range r.Cover {
			reduced := make([]int, 0, len(r.Cover)-1)
			for i, v := range r.Cover {
				if i != drop {
					reduced = append(reduced, v)
				}
			}
			if len(reduced) == 0 {
				continue
			}
			ok, err := isCoverSampled(ls, reduced, 2048)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				t.Fatalf("trial %d: dropping disk %d from cover %v still covers — not minimal",
					trial, r.Cover[drop], r.Cover)
			}
		}
	}
}

func TestIsCoverExact(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 30; trial++ {
		ls := randomLocalSet(rng, 2+rng.Intn(10), trial%2 == 0)
		r, err := Solve(ls)
		if err != nil {
			t.Fatal(err)
		}
		n := len(ls.Neighbors) + 1
		full := make([]int, n)
		for i := range full {
			full[i] = i
		}
		if ok, _ := isCover(ls, full); !ok {
			t.Fatal("the full set must be a cover")
		}
		if ok, _ := isCover(ls, r.Cover); !ok {
			t.Fatal("the MLDCS must be a cover")
		}
		if len(r.Cover) > 1 {
			if ok, _ := isCover(ls, r.Cover[1:]); ok {
				t.Fatal("a proper subset of the MLDCS must not be a cover")
			}
		}
		if ok, _ := isCover(ls, nil); ok {
			t.Fatal("the empty set is not a cover")
		}
	}
}

func TestIsCoverRejectsBadIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	ls := randomLocalSet(rng, 3, true)
	if _, err := isCover(ls, []int{99}); err == nil {
		t.Error("out-of-range index must error")
	}
	if _, err := isCoverSampled(ls, []int{-1}, 64); err == nil {
		t.Error("negative index must error")
	}
}

func TestNeighborCoverAndContainsHub(t *testing.T) {
	// Hub with a huge radius dominates everything: cover = {0}.
	ls := LocalSet{
		Hub:       geom.NewDisk(0, 0, 5),
		Neighbors: []geom.Disk{geom.NewDisk(1, 0, 1.1), geom.NewDisk(0, 1, 1.1)},
	}
	r, err := Solve(ls)
	if err != nil {
		t.Fatal(err)
	}
	if !r.ContainsHub() {
		t.Error("dominating hub must be in the cover")
	}
	if len(r.NeighborCover()) != 0 {
		t.Errorf("no neighbors should be needed, got %v", r.NeighborCover())
	}

	// Far-flung neighbor that pokes out: must appear in NeighborCover with
	// a neighbor-relative index.
	ls2 := LocalSet{
		Hub:       geom.NewDisk(0, 0, 1),
		Neighbors: []geom.Disk{geom.NewDisk(0.9, 0, 1.5)},
	}
	r2, err := Solve(ls2)
	if err != nil {
		t.Fatal(err)
	}
	nc := r2.NeighborCover()
	if len(nc) != 1 || nc[0] != 0 {
		t.Errorf("NeighborCover = %v, want [0]", nc)
	}
}

func TestSolveRejectsInvalid(t *testing.T) {
	ls := LocalSet{Hub: geom.NewDisk(0, 0, 1), Neighbors: []geom.Disk{geom.NewDisk(9, 0, 1)}}
	if _, err := Solve(ls); err == nil {
		t.Error("invalid local set must fail")
	}
	if _, err := bruteForceCover(ls, 64); err == nil {
		t.Error("brute force on invalid local set must fail")
	}
}

func TestBruteForceSizeGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	ls := randomLocalSet(rng, 25, true)
	if _, err := bruteForceCover(ls, 64); err == nil {
		t.Error("brute force must refuse oversized inputs")
	}
}
