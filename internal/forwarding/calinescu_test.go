package forwarding

import (
	"math/rand"
	"testing"

	"repro/internal/deploy"
)

func TestIntervalLenAndContains(t *testing.T) {
	m := 10
	plain := interval{2, 5}
	if plain.len(m) != 4 {
		t.Errorf("len([2,5]) = %d, want 4", plain.len(m))
	}
	for _, p := range []int{2, 3, 5} {
		if !plain.contains(p) {
			t.Errorf("[2,5] must contain %d", p)
		}
	}
	for _, p := range []int{1, 6, 9} {
		if plain.contains(p) {
			t.Errorf("[2,5] must not contain %d", p)
		}
	}
	wrap := interval{8, 1}
	if wrap.len(m) != 4 {
		t.Errorf("len([8..1]) = %d, want 4", wrap.len(m))
	}
	for _, p := range []int{8, 9, 0, 1} {
		if !wrap.contains(p) {
			t.Errorf("[8..1] must contain %d", p)
		}
	}
	for _, p := range []int{2, 7} {
		if wrap.contains(p) {
			t.Errorf("[8..1] must not contain %d", p)
		}
	}
}

func TestContiguousInterval(t *testing.T) {
	m := 8
	if iv, ok := contiguousInterval([]int{2, 3, 4}, m); !ok || iv != (interval{2, 4}) {
		t.Errorf("contiguous [2,3,4] = %v, %v", iv, ok)
	}
	if iv, ok := contiguousInterval([]int{0, 1, 7}, m); !ok || iv != (interval{7, 1}) {
		t.Errorf("wrapping [0,1,7] = %v, %v", iv, ok)
	}
	if iv, ok := contiguousInterval([]int{3}, m); !ok || iv != (interval{3, 3}) {
		t.Errorf("singleton = %v, %v", iv, ok)
	}
	if _, ok := contiguousInterval([]int{0, 2, 4}, m); ok {
		t.Error("scattered set must not be contiguous")
	}
	if iv, ok := contiguousInterval([]int{0, 1, 2, 3, 4, 5, 6, 7}, m); !ok || iv != (interval{0, 7}) {
		t.Errorf("full circle = %v, %v", iv, ok)
	}
}

func TestCircularStab(t *testing.T) {
	m := 10
	// Disjoint intervals need one stab each.
	got := circularStab([]interval{{0, 1}, {4, 5}, {8, 9}}, m)
	if len(got) != 3 {
		t.Errorf("3 disjoint intervals stabbed with %v", got)
	}
	// Nested/overlapping intervals share a stab.
	got = circularStab([]interval{{2, 6}, {3, 4}, {4, 8}}, m)
	if len(got) != 1 {
		t.Errorf("overlapping intervals stabbed with %v, want 1 point", got)
	}
	if len(got) == 1 && !(interval{3, 4}).contains(got[0]) {
		t.Errorf("stab %v must hit the innermost interval [3,4]", got)
	}
	// A wrapping interval plus a plain one.
	got = circularStab([]interval{{8, 1}, {0, 3}}, m)
	if len(got) != 1 {
		t.Errorf("wrap-overlap stabbed with %v, want 1 point", got)
	}
	// Empty input.
	if got := circularStab(nil, m); got != nil {
		t.Errorf("no intervals → no stabs, got %v", got)
	}
	// Full-circle intervals.
	got = circularStab([]interval{{0, 9}, {0, 9}}, m)
	if len(got) != 1 {
		t.Errorf("full-circle intervals stabbed with %v", got)
	}
}

// Verify circularStab is minimal by brute force on random instances.
func TestCircularStabMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 200; trial++ {
		m := 3 + rng.Intn(8)
		k := 1 + rng.Intn(5)
		intervals := make([]interval, k)
		for i := range intervals {
			lo := rng.Intn(m)
			length := 1 + rng.Intn(m)
			intervals[i] = interval{lo, (lo + length - 1) % m}
		}
		got := circularStab(intervals, m)
		// Check feasibility.
		for _, iv := range intervals {
			hit := false
			for _, p := range got {
				if iv.contains(p) {
					hit = true
					break
				}
			}
			if !hit {
				t.Fatalf("trial %d: stab %v misses %v (m=%d, %v)", trial, got, iv, m, intervals)
			}
		}
		// Brute-force minimum by subset enumeration over positions.
		best := m + 1
		for mask := 0; mask < 1<<m; mask++ {
			cnt := 0
			var pts []int
			for p := 0; p < m; p++ {
				if mask&(1<<p) != 0 {
					cnt++
					pts = append(pts, p)
				}
			}
			if cnt >= best {
				continue
			}
			ok := true
			for _, iv := range intervals {
				hit := false
				for _, p := range pts {
					if iv.contains(p) {
						hit = true
						break
					}
				}
				if !hit {
					ok = false
					break
				}
			}
			if ok {
				best = cnt
			}
		}
		if len(got) != best {
			t.Fatalf("trial %d: circularStab used %d points, optimum is %d (m=%d, %v)",
				trial, len(got), best, m, intervals)
		}
	}
}

// The published quadrant variant must cover like the exact one, never
// beat the optimal, and on aggregate use at least as many forwarders as
// the globally-exact circular stabbing (its per-quadrant decomposition
// cannot gain anything).
func TestCalinescuQuadrantVariant(t *testing.T) {
	sumExact, sumQuad, sumOpt := 0, 0, 0
	for seed := int64(0); seed < 20; seed++ {
		g := buildRandom(t, deploy.Homogeneous, 10, 450+seed)
		quad, err := (CalinescuQuadrant{}).Select(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !covers(g, 0, quad) {
			t.Fatalf("seed %d: quadrant set %v misses %v", seed, quad, Uncovered(g, 0, quad))
		}
		exact, err := (Calinescu{}).Select(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := (Optimal{}).Select(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(quad) < len(opt) {
			t.Fatalf("seed %d: quadrant %d below optimal %d", seed, len(quad), len(opt))
		}
		sumExact += len(exact)
		sumQuad += len(quad)
		sumOpt += len(opt)
	}
	if sumQuad < sumExact {
		t.Errorf("quadrant total %d beats exact stabbing %d — impossible on average",
			sumQuad, sumExact)
	}
	t.Logf("totals over 20 runs: optimal %d, exact %d, quadrant %d", sumOpt, sumExact, sumQuad)
}

func TestCalinescuQuadrantRejects(t *testing.T) {
	g := buildRandom(t, deploy.Heterogeneous, 8, 470)
	if _, err := (CalinescuQuadrant{}).Select(g, 0); err == nil {
		t.Error("heterogeneous network must be rejected")
	}
	sel, err := ByName("calinescu-quadrant")
	if err != nil || sel.Name() != "calinescu-quadrant" {
		t.Errorf("ByName registration broken: %v, %v", sel, err)
	}
}

// On the paper's homogeneous workloads Călinescu must sit between optimal
// and skyline on average (Figure 5.1 ordering).
func TestCalinescuBetweenOptimalAndSkyline(t *testing.T) {
	sumCal, sumSky, sumOpt := 0, 0, 0
	for seed := int64(0); seed < 20; seed++ {
		g := buildRandom(t, deploy.Homogeneous, 10, 400+seed)
		cal, err := (Calinescu{}).Select(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !covers(g, 0, cal) {
			t.Fatalf("seed %d: calinescu set %v misses %v", seed, cal, Uncovered(g, 0, cal))
		}
		sky, _ := (Skyline{}).Select(g, 0)
		opt, _ := (Optimal{}).Select(g, 0)
		sumCal += len(cal)
		sumSky += len(sky)
		sumOpt += len(opt)
		if len(cal) < len(opt) {
			t.Fatalf("seed %d: calinescu %d below optimal %d", seed, len(cal), len(opt))
		}
	}
	if !(sumOpt <= sumCal && sumCal <= sumSky) {
		t.Errorf("Figure 5.1 ordering violated on average: optimal %d, calinescu %d, skyline %d",
			sumOpt, sumCal, sumSky)
	}
}
