package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestBoundingBox(t *testing.T) {
	disks := []Disk{NewDisk(0, 0, 1), NewDisk(3, 1, 2)}
	minX, minY, maxX, maxY, ok := boundingBox(disks)
	if !ok {
		t.Fatal("bounding box of non-empty set must exist")
	}
	if minX != -1 || minY != -1 || maxX != 5 || maxY != 3 {
		t.Errorf("bbox = (%v,%v)-(%v,%v)", minX, minY, maxX, maxY)
	}
	if _, _, _, _, ok := boundingBox(nil); ok {
		t.Error("empty set has no bounding box")
	}
}

func TestUnionContains(t *testing.T) {
	disks := []Disk{NewDisk(0, 0, 1), NewDisk(3, 0, 1)}
	if !unionContains(disks, Pt(0.5, 0)) || !unionContains(disks, Pt(3, 0.5)) {
		t.Error("points inside either disk are in the union")
	}
	if unionContains(disks, Pt(1.5, 0.8)) {
		t.Error("(1.5, 0.8) is in neither disk")
	}
}

func TestUnionAreaMCSingleDisk(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	got := UnionAreaMC([]Disk{NewDisk(0, 0, 2)}, 200000, rng)
	want := 4 * math.Pi
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("MC area = %v, want ≈ %v", got, want)
	}
}

func TestUnionAreaMCDisjointDisks(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	disks := []Disk{NewDisk(0, 0, 1), NewDisk(10, 0, 1)}
	got := UnionAreaMC(disks, 200000, rng)
	want := 2 * math.Pi
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("MC area = %v, want ≈ %v", got, want)
	}
}

func TestUnionAreaMCEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	if got := UnionAreaMC(nil, 100, rng); got != 0 {
		t.Errorf("empty union area = %v, want 0", got)
	}
}

func TestUnionsEqualMC(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	big := NewDisk(0, 0, 3)
	hidden := NewDisk(0.5, 0, 1) // strictly inside big
	eq, _ := UnionsEqualMC([]Disk{big, hidden}, []Disk{big}, 50000, rng)
	if !eq {
		t.Error("dropping a covered disk must not change the union")
	}
	other := NewDisk(5, 0, 1)
	eq, w := UnionsEqualMC([]Disk{big, other}, []Disk{big}, 50000, rng)
	if eq {
		t.Error("dropping an uncovered disk must change the union")
	} else if !other.Contains(w) || big.Contains(w) {
		t.Errorf("witness %v should be in the dropped disk only", w)
	}
}

func TestUnionsEqualMCEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	if eq, _ := UnionsEqualMC(nil, nil, 100, rng); !eq {
		t.Error("two empty unions are equal")
	}
}
