package geom

import (
	"math"
	"testing"
)

// TestLinkWithinBoundary pins the canonical link predicate at the exact
// boundary: distance r and r ± Eps/2 must be accepted, r + 2·Eps rejected,
// for small and large radii alike.
func TestLinkWithinBoundary(t *testing.T) {
	for _, r := range []float64{0.25, 1, 2, 5, 100} {
		for _, tc := range []struct {
			name string
			dist float64
			want bool
		}{
			{"exact-r", r, true},
			{"r-minus-half-eps", r - Eps/2, true},
			{"r-plus-half-eps", r + Eps/2, true},
			{"r-plus-2eps", r + 2*Eps, false},
			{"well-inside", r / 2, true},
			{"well-outside", 2 * r, false},
		} {
			if got := LinkWithin(tc.dist, r); got != tc.want {
				t.Errorf("LinkWithin(%g, %g) [%s] = %v, want %v", tc.dist, r, tc.name, got, tc.want)
			}
		}
	}
}

// TestLinkWithin2MatchesLinear is the heart of the unified policy: the
// squared-space predicate must accept exactly the same distances as the
// linear one. The old grid filter compared d² against r²+Eps, which for
// r > 0.5 is stricter than d ≤ r+Eps by up to (2r−1)·Eps and dropped true
// boundary neighbors.
func TestLinkWithin2MatchesLinear(t *testing.T) {
	for _, r := range []float64{0.25, 0.5, 1, 2, 5, 100} {
		for _, dist := range []float64{
			r, r - Eps/2, r + Eps/2, r + 2*Eps, r - 2*Eps,
			r / 2, 2 * r, 0,
		} {
			if dist < 0 {
				continue
			}
			lin := LinkWithin(dist, r)
			sq := LinkWithin2(dist*dist, r)
			if lin != sq {
				t.Errorf("r=%g dist=%g: LinkWithin=%v but LinkWithin2=%v", r, dist, lin, sq)
			}
		}
	}
}

// TestLinkWithin2RegressionLargeRadius reproduces the pre-fix divergence
// directly: at r = 5, a point at distance r + Eps/2 satisfies the linear
// predicate but fails the old squared comparison d² ≤ r² + Eps.
func TestLinkWithin2RegressionLargeRadius(t *testing.T) {
	const r = 5.0
	dist := r + Eps/2
	if dist*dist <= r*r+Eps {
		t.Fatalf("test premise broken: old-style comparison accepts d=%g at r=%g", dist, r)
	}
	if !LinkWithin(dist, r) {
		t.Fatalf("LinkWithin(%g, %g) = false, want true", dist, r)
	}
	if !LinkWithin2(dist*dist, r) {
		t.Fatalf("LinkWithin2(%g, %g) = false, want true (old squared-space bug)", dist*dist, r)
	}
}

func TestReaches(t *testing.T) {
	p, q := Pt(0, 0), Pt(3, 4) // distance 5
	if !Reaches(p, q, 5) {
		t.Errorf("Reaches at exact radius = false, want true")
	}
	if Reaches(p, q, 4.999) {
		t.Errorf("Reaches beyond radius = true, want false")
	}
}

func TestZeroLengthAndLengthEq(t *testing.T) {
	if !LengthEq(1, 1+Eps/2) || LengthEq(1, 1+2*Eps) || !LengthEq(5, 5) {
		t.Errorf("LengthEq boundary behavior wrong")
	}
}

func TestRhoCmp(t *testing.T) {
	for _, tc := range []struct {
		a, b float64
		want int
	}{
		{1, 1, 0},
		{1 + RhoEps/2, 1, 0},
		{1 - RhoEps/2, 1, 0},
		{1 + 2*RhoEps, 1, +1},
		{1 - 2*RhoEps, 1, -1},
		{2, 1, +1},
		{1, 2, -1},
	} {
		if got := RhoCmp(tc.a, tc.b); got != tc.want {
			t.Errorf("RhoCmp(%g, %g) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestAngleSliver(t *testing.T) {
	if !AngleSliver(1, 1) || !AngleSliver(1, 1+AngleEps/2) || AngleSliver(1, 1+2*AngleEps) {
		t.Errorf("AngleSliver boundary behavior wrong")
	}
}

func TestCoversAngle(t *testing.T) {
	if !CoversAngle(1, 1, 2) || !CoversAngle(2, 1, 2) || !CoversAngle(1.5, 1, 2) {
		t.Errorf("CoversAngle must include endpoints and interior")
	}
	if CoversAngle(2+2*AngleEps, 1, 2) || CoversAngle(1-2*AngleEps, 1, 2) {
		t.Errorf("CoversAngle must reject angles beyond AngleEps outside the span")
	}
}

// TestRhoEpsEqualsEps pins the policy decision of this layer: the envelope
// tie tolerance and the link tolerance are one and the same constant. If
// this ever changes, docs/NUMERICS.md and the tie-break tests in
// internal/skyline must change with it.
func TestRhoEpsEqualsEps(t *testing.T) {
	if RhoEps != Eps {
		t.Fatalf("RhoEps = %g, Eps = %g: the unified policy requires them equal", RhoEps, Eps)
	}
	if math.Abs(AngleEps-1e-9) > 0 {
		t.Fatalf("AngleEps = %g, want 1e-9 (documented in docs/NUMERICS.md)", AngleEps)
	}
}
