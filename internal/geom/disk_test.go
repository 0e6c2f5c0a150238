package geom

import (
	"math"
	"math/rand"
	"testing"
)

// onBoundary reports whether p lies on the circle ∂B(C, R) within Eps.
func (d Disk) onBoundary(p Point) bool {
	return math.Abs(d.C.Dist(p)-d.R) <= Eps
}

// containsStrict reports whether p lies in the open disk by more than Eps.
func (d Disk) containsStrict(p Point) bool {
	return d.C.Dist(p) < d.R-Eps
}

func TestDiskContains(t *testing.T) {
	d := NewDisk(1, 1, 2)
	if !d.Contains(Pt(1, 1)) {
		t.Error("center must be contained")
	}
	if !d.Contains(Pt(3, 1)) {
		t.Error("boundary point must be contained (closed disk)")
	}
	if d.Contains(Pt(3.1, 1)) {
		t.Error("(3.1, 1) is outside")
	}
	if d.containsStrict(Pt(3, 1)) {
		t.Error("boundary point is not strictly inside")
	}
	if !d.onBoundary(Pt(3, 1)) {
		t.Error("(3, 1) is on the boundary")
	}
}

func TestContainsDisk(t *testing.T) {
	big := NewDisk(0, 0, 5)
	small := NewDisk(1, 0, 2)
	if !big.ContainsDisk(small) {
		t.Error("B((0,0),5) contains B((1,0),2)")
	}
	if small.ContainsDisk(big) {
		t.Error("small disk cannot contain big disk")
	}
	touching := NewDisk(3, 0, 2) // internally tangent to big
	if !big.ContainsDisk(touching) {
		t.Error("internally tangent disk is contained (closed disks)")
	}
	if !big.ContainsDisk(big) {
		t.Error("a disk contains itself")
	}
}

func TestTranslate(t *testing.T) {
	d := NewDisk(3, 4, 2)
	got := d.Translate(Pt(1, 1))
	if got.C != Pt(2, 3) || got.R != 2 {
		t.Errorf("Translate = %v", got)
	}
}

// RayDist at angle θ must land exactly on the circle and be the larger of
// the two ray–circle intersection parameters.
func TestRayDistOnBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		d := randomLocalDisk(rng)
		theta := rng.Float64() * TwoPi
		rho := d.RayDist(theta)
		if rho < -Eps {
			t.Fatalf("RayDist negative: %v at θ=%v for %v", rho, theta, d)
		}
		p := Unit(theta).Scale(rho)
		if !d.onBoundary(p) {
			t.Fatalf("RayDist point %v not on boundary of %v (dist-to-center %v)",
				p, d, d.C.Dist(p))
		}
	}
}

// For a disk containing the origin, any point of the ray beyond RayDist is
// outside the disk and any point before it is inside.
func TestRayDistSeparates(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		d := randomLocalDisk(rng)
		theta := rng.Float64() * TwoPi
		rho := d.RayDist(theta)
		inside := Unit(theta).Scale(rho * 0.99)
		outside := Unit(theta).Scale(rho*1.01 + 1e-6)
		if !d.Contains(inside) {
			t.Fatalf("point before RayDist should be inside: %v, %v", d, theta)
		}
		if d.containsStrict(outside) {
			t.Fatalf("point after RayDist should be outside: %v, %v", d, theta)
		}
	}
}

// A disk centered at the origin has RayDist == R in every direction.
func TestRayDistCentered(t *testing.T) {
	d := NewDisk(0, 0, 2.5)
	for _, theta := range []float64{0, 1, 2, 3, 4, 5, 6} {
		if got := d.RayDist(theta); !almostEq(got, 2.5, 1e-12) {
			t.Errorf("RayDist(%v) = %v, want 2.5", theta, got)
		}
	}
}

// A disk not containing the origin: rays pointing away miss it (NaN).
func TestRayDistMiss(t *testing.T) {
	d := NewDisk(5, 0, 1)
	if got := d.RayDist(math.Pi); !math.IsNaN(got) {
		t.Errorf("ray pointing away should miss: got %v", got)
	}
	if got := d.RayDist(0); !almostEq(got, 6, 1e-9) {
		t.Errorf("ray toward the disk returns far root: got %v, want 6", got)
	}
}

func TestContainsOrigin(t *testing.T) {
	if !NewDisk(1, 0, 1).ContainsOrigin() {
		t.Error("B((1,0),1) touches the origin (closed disk)")
	}
	if NewDisk(1, 0, 0.5).ContainsOrigin() {
		t.Error("B((1,0),0.5) does not contain the origin")
	}
}

func TestDiskEqAndString(t *testing.T) {
	d := NewDisk(1, 2, 3)
	if s := d.String(); s == "" || s[0] != 'B' {
		t.Errorf("String = %q", s)
	}
	if s := Pt(1, 2).String(); s != "(1, 2)" {
		t.Errorf("Point.String = %q", s)
	}
}

// randomLocalDisk returns a disk that contains the origin, with radius in
// [1, 2], mimicking the paper's heterogeneous radii.
func randomLocalDisk(rng *rand.Rand) Disk {
	r := 1 + rng.Float64()
	dist := rng.Float64() * r * 0.999
	theta := rng.Float64() * TwoPi
	return Disk{Unit(theta).Scale(dist), r}
}
