package mldcs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// quickLocal compactly parameterizes a random LocalSet for testing/quick.
type quickLocal struct {
	Seed int64
	N    uint8
	Het  bool
}

func (in quickLocal) set() LocalSet {
	rng := rand.New(rand.NewSource(in.Seed))
	return randomLocalSet(rng, int(in.N)%12+1, !in.Het)
}

// Property: the cover is always a non-empty subset of the local set in
// index order, and the skyline in the result validates.
func TestQuickSolveStructure(t *testing.T) {
	f := func(in quickLocal) bool {
		ls := in.set()
		r, err := Solve(ls)
		if err != nil {
			return false
		}
		if len(r.Cover) == 0 || len(r.Cover) > len(ls.Neighbors)+1 {
			return false
		}
		for i := 1; i < len(r.Cover); i++ {
			if r.Cover[i] <= r.Cover[i-1] {
				return false
			}
		}
		for _, idx := range r.Cover {
			if idx < 0 || idx > len(ls.Neighbors) {
				return false
			}
		}
		return r.Skyline.Validate(len(ls.Neighbors)+1) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: isCover is monotone — any superset of a cover is a cover, and
// any subset missing a cover element is not.
func TestQuickIsCoverMonotone(t *testing.T) {
	f := func(in quickLocal) bool {
		ls := in.set()
		r, err := Solve(ls)
		if err != nil {
			return false
		}
		n := len(ls.Neighbors) + 1
		full := make([]int, n)
		for i := range full {
			full[i] = i
		}
		okFull, err := isCover(ls, full)
		if err != nil || !okFull {
			return false
		}
		if len(r.Cover) > 0 {
			missing := r.Cover[len(r.Cover)-1]
			var without []int
			for i := 0; i < n; i++ {
				if i != missing {
					without = append(without, i)
				}
			}
			ok, err := isCover(ls, without)
			if err != nil || ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: growing any neighbor's radius can only keep or shrink the
// relative coverage of other disks — concretely, the new cover's union
// area never decreases (the union grows monotonically with radii).
func TestQuickAreaMonotoneInRadii(t *testing.T) {
	f := func(in quickLocal, which uint8, growRaw uint8) bool {
		ls := in.set()
		if len(ls.Neighbors) == 0 {
			return true
		}
		r, err := Solve(ls)
		if err != nil {
			return false
		}
		before := r.Skyline.Area(ls.All())
		grown := ls
		grown.Neighbors = append([]geom.Disk(nil), ls.Neighbors...)
		i := int(which) % len(grown.Neighbors)
		grown.Neighbors[i].R += 0.01 + float64(growRaw)/255
		r2, err := Solve(grown)
		if err != nil {
			return false
		}
		after := r2.Skyline.Area(grown.All())
		return after >= before-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
