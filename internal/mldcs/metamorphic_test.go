package mldcs

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

// Metamorphic tests at the MLDCS level: rigid motions of the whole local
// set and neighbor relabelings must not change which nodes end up in the
// cover. These complement the skyline-level metamorphic tests by going
// through Solve's hub-frame translation and validation.

func sameCover(t *testing.T, got, want []int, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: cover = %v, want %v", label, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: cover = %v, want %v", label, got, want)
		}
	}
}

// transformLocalSet applies an affine map p → origin + s·Rot(phi)·(p − hub)
// to every disk center and scales radii by s, producing a congruent (up to
// scale) local set anchored at origin.
func transformLocalSet(ls LocalSet, origin geom.Point, phi, s float64) LocalSet {
	c, sn := math.Cos(phi), math.Sin(phi)
	move := func(d geom.Disk) geom.Disk {
		rel := d.C.Sub(ls.Hub.C)
		rot := geom.Pt(c*rel.X-sn*rel.Y, sn*rel.X+c*rel.Y)
		return geom.Disk{C: origin.Add(rot.Scale(s)), R: d.R * s}
	}
	out := LocalSet{Hub: move(ls.Hub)}
	for _, d := range ls.Neighbors {
		out.Neighbors = append(out.Neighbors, move(d))
	}
	return out
}

// TestMetamorphicRigidMotion: translating, rotating, and uniformly scaling
// a local set leaves the cover (as indices) unchanged.
func TestMetamorphicRigidMotion(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		ls := randomLocalSet(rng, 1+rng.Intn(16), trial%2 == 0)
		base, err := Solve(ls)
		if err != nil {
			t.Fatal(err)
		}
		cases := []struct {
			name   string
			origin geom.Point
			phi, s float64
		}{
			{"translate", geom.Pt(rng.Float64()*100-50, rng.Float64()*100-50), 0, 1},
			{"rotate", ls.Hub.C, rng.Float64() * geom.TwoPi, 1},
			{"scale", ls.Hub.C, 0, 0.5 + rng.Float64()*3},
			{"all", geom.Pt(rng.Float64()*20, rng.Float64()*20), rng.Float64() * geom.TwoPi, 0.5 + rng.Float64()*3},
		}
		for _, c := range cases {
			moved := transformLocalSet(ls, c.origin, c.phi, c.s)
			got, err := Solve(moved)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, c.name, err)
			}
			label := fmt.Sprintf("trial %d %s (n=%d)", trial, c.name, len(ls.Neighbors))
			sameCover(t, got.Cover, base.Cover, label)
			if got.ContainsHub() != base.ContainsHub() {
				t.Fatalf("%s: ContainsHub changed", label)
			}
		}
	}
}

// TestMetamorphicNeighborPermutation: shuffling the neighbor list permutes
// the cover indices accordingly (the hub keeps index 0).
func TestMetamorphicNeighborPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 40; trial++ {
		ls := randomLocalSet(rng, 2+rng.Intn(16), trial%2 == 1)
		base, err := Solve(ls)
		if err != nil {
			t.Fatal(err)
		}
		perm := rng.Perm(len(ls.Neighbors)) // perm[newIdx] = oldIdx
		inv := make([]int, len(perm))
		shuffled := LocalSet{Hub: ls.Hub, Neighbors: make([]geom.Disk, len(perm))}
		for newIdx, oldIdx := range perm {
			shuffled.Neighbors[newIdx] = ls.Neighbors[oldIdx]
			inv[oldIdx] = newIdx
		}
		got, err := Solve(shuffled)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int, 0, len(base.Cover))
		for _, i := range base.Cover {
			if i == 0 {
				want = append(want, 0)
			} else {
				want = append(want, inv[i-1]+1)
			}
		}
		sort.Ints(want)
		sameCover(t, got.Cover, want, fmt.Sprintf("trial %d (n=%d)", trial, len(ls.Neighbors)))
	}
}

// TestMetamorphicDegenerateLocalSets: duplicate, concentric, and tangent
// neighbor disks keep Solve's output a valid minimal cover, and the cover
// survives the cover-oracle cross-checks.
func TestMetamorphicDegenerateLocalSets(t *testing.T) {
	hub := geom.NewDisk(3, -2, 1.5)
	at := func(dx, dy, r float64) geom.Disk {
		return geom.Disk{C: hub.C.Add(geom.Pt(dx, dy)), R: r}
	}
	cases := []struct {
		name string
		ls   LocalSet
	}{
		{"duplicates", LocalSet{hub, []geom.Disk{at(0.5, 0, 1.2), at(0.5, 0, 1.2), at(0.5, 0, 1.2)}}},
		{"concentric", LocalSet{hub, []geom.Disk{at(0, 0, 1), at(0, 0, 2), at(0, 0, 0.5)}}},
		{"hub-duplicate", LocalSet{hub, []geom.Disk{at(0, 0, hub.R), at(0, 0, hub.R)}}},
		{"tangent", LocalSet{hub, []geom.Disk{at(1.2, 0, 1.2), at(-0.7, 0, 0.7)}}},
		{"cocircular", LocalSet{hub, []geom.Disk{
			at(0.8, 0, 1), at(0, 0.8, 1), at(-0.8, 0, 1), at(0, -0.8, 1),
		}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, err := Solve(c.ls)
			if err != nil {
				t.Fatal(err)
			}
			ok, err := isCoverSampled(c.ls, r.Cover, 2048)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("cover %v does not cover the union", r.Cover)
			}
			brute, err := bruteForceCover(c.ls, 512)
			if err != nil {
				t.Fatal(err)
			}
			if len(brute) != len(r.Cover) {
				t.Fatalf("cover %v is not minimum: brute force found %v", r.Cover, brute)
			}
		})
	}
}
