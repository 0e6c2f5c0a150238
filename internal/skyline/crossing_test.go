package skyline_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/deploy"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/network"
	"repro/internal/skyline"
)

// checkPair asserts that the production candidate generator returns,
// bit for bit, the reference's candidates that lie strictly inside the
// span, for the pair (d, e) in the given order and for each span of
// spansFor.
func checkPair(t *testing.T, rng *rand.Rand, d, e geom.Disk) {
	t.Helper()
	disks := []geom.Disk{d, e}
	all, an := skyline.CrossingAnglesReference(disks, 0, 1)
	for _, s := range spansFor(rng, all[:an]) {
		got, gn := skyline.CrossingAngles(disks, 0, 1, s[0], s[1])
		var want []float64
		for _, c := range all[:an] {
			if geom.AngleStrictlyInSpan(c, s[0], s[1]) {
				want = append(want, c)
			}
		}
		same := gn == len(want)
		for k := 0; same && k < gn; k++ {
			same = math.Float64bits(got[k]) == math.Float64bits(want[k])
		}
		if !same {
			t.Fatalf("crossingAngles(%#v, %#v, span %v) = %v, reference %v", d, e, s, got[:gn], want)
		}
	}
}

// spansFor returns the spans a pair is checked on: the whole line, the
// whole circle, a random span, a span with an end a few ulps from the
// edge of a reference candidate's AngleEps margin, and a span with an end
// a few ulps from an octant bound kπ/4.
func spansFor(rng *rand.Rand, cands []float64) [][2]float64 {
	ulps := func(x float64) float64 {
		for s := rng.Intn(9) - 4; s != 0; {
			if s > 0 {
				x, s = math.Nextafter(x, math.Inf(1)), s-1
			} else {
				x, s = math.Nextafter(x, math.Inf(-1)), s+1
			}
		}
		return x
	}
	lo, hi := geom.TwoPi*rng.Float64(), geom.TwoPi*rng.Float64()
	if lo > hi {
		lo, hi = hi, lo
	}
	spans := [][2]float64{{math.Inf(-1), math.Inf(1)}, {0, geom.TwoPi}, {lo, hi}}
	if len(cands) > 0 {
		c := cands[rng.Intn(len(cands))]
		if rng.Intn(2) == 0 {
			spans = append(spans, [2]float64{ulps(c - geom.AngleEps), geom.TwoPi})
		} else {
			spans = append(spans, [2]float64{0, ulps(c + geom.AngleEps)})
		}
	}
	bound := ulps(math.Pi / 4 * float64(rng.Intn(9)))
	if rng.Intn(2) == 0 {
		spans = append(spans, [2]float64{bound, geom.TwoPi})
	} else {
		spans = append(spans, [2]float64{0, bound})
	}
	return spans
}

// localSets returns every node's local disk set, in its hub's frame.
func localSets(t *testing.T, nodes []network.Node) [][]geom.Disk {
	t.Helper()
	g, err := network.Build(nodes, network.Bidirectional)
	if err != nil {
		t.Fatal(err)
	}
	sets := make([][]geom.Disk, len(nodes))
	for u := range nodes {
		ls, _, err := g.LocalSet(u)
		if err != nil {
			t.Fatal(err)
		}
		sets[u] = ls.All()
	}
	return sets
}

// scaledConfig is the paper's deployment with the square scaled to hold n
// nodes at mean degree 10, as the service benchmark and the engine
// benchmarks scale it.
func scaledConfig(model deploy.RadiusModel, n int) deploy.Config {
	cfg := deploy.PaperConfig(model, 10)
	cfg.Side = math.Sqrt(float64(n) * math.Pi * cfg.ExpectedMinRadiusSq() / cfg.MeanDegree)
	return cfg
}

// TestCrossingAnglesBitIdentical pins the far-root shortcut to the
// reference over more than 10^6 disk pairs: every pair of every local set
// of a uniform heterogeneous and a uniform homogeneous 5,000-node
// deployment, up to 100 sampled pairs of every local set of a 5,000-node
// zipf hotspot deployment, and the adversarial families of
// adversarialPairs.
func TestCrossingAnglesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	pairs := 0
	for _, model := range []deploy.RadiusModel{deploy.Heterogeneous, deploy.Homogeneous} {
		nodes, err := deploy.Generate(scaledConfig(model, 5000), rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, set := range localSets(t, nodes) {
			for i := range set {
				for j := i + 1; j < len(set); j++ {
					checkPair(t, rng, set[i], set[j])
					pairs++
				}
			}
		}
	}
	w, err := mobility.NewHotspotWorkload(mobility.HotspotConfig{
		Deploy:     scaledConfig(deploy.Heterogeneous, 5000),
		Hotspots:   8,
		Contention: 1.2,
		Spread:     1.5,
		MoveFrac:   0.02,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range localSets(t, w.Nodes()) {
		if len(set) < 2 {
			continue
		}
		for k := 0; k < 100; k++ {
			i, j := rng.Intn(len(set)), rng.Intn(len(set))
			if i != j {
				checkPair(t, rng, set[i], set[j])
				pairs++
			}
		}
	}
	adversarialPairs(rng, func(d, e geom.Disk) {
		checkPair(t, rng, d, e)
		checkPair(t, rng, e, d)
		pairs++
	})
	if pairs < 1_000_000 {
		t.Fatalf("checked %d pairs, want at least 10^6", pairs)
	}
	t.Logf("%d pairs bit-identical", pairs)
}

// adversarialPairs emits local-set disk pairs from the families where a
// trigonometry-free far-root decision could go wrong: near-coincident and
// internally near-tangent circles (whose computed intersection can lie far
// off both circles), hub-tangent disks and disks that reach the hub only
// within geom.Eps (whose intersections can be near roots), disks at the
// geom.FarRootMargin boundary, extreme radius ratios, and all of these
// scaled by powers of two across geom.HubWellInside's radius limits.
func adversarialPairs(rng *rand.Rand, emit func(d, e geom.Disk)) {
	offsets := []float64{0, 0x1p-60, 1e-15, 1e-12, geom.Eps / 2, geom.Eps, 1.5 * geom.Eps, 2 * geom.Eps, 1e-8, 1e-6}
	offset := func() float64 {
		o := offsets[rng.Intn(len(offsets))]
		if rng.Intn(2) == 0 {
			return -o
		}
		return o
	}
	// disk returns a disk of radius r whose center is frac·r from the hub.
	disk := func(r, frac float64) geom.Disk {
		return geom.Disk{C: geom.Unit(rng.Float64() * geom.TwoPi).Scale(frac * r), R: r}
	}
	random := func() geom.Disk { return disk(0.5+2*rng.Float64(), rng.Float64()) }
	local := func(d geom.Disk) bool { return d.R > 0 && d.ContainsOrigin() }
	scales := []int{0, 0, 0, -1030, -540, -520, -460, -451, -450, -449, -300, -60, -20, -19, 60, 300, 449, 450, 451, 460, 500, 511, 520}
	out := func(d, e geom.Disk) {
		if !local(d) || !local(e) {
			return
		}
		k := scales[rng.Intn(len(scales))]
		scale := func(x geom.Disk) geom.Disk {
			return geom.Disk{C: geom.Pt(math.Ldexp(x.C.X, k), math.Ldexp(x.C.Y, k)), R: math.Ldexp(x.R, k)}
		}
		emit(scale(d), scale(e))
	}
	const per = 20_000
	for k := 0; k < per; k++ {
		// Near-coincident circles: centers and radii a few Eps apart.
		d := random()
		out(d, geom.Disk{C: d.C.Add(geom.Unit(rng.Float64() * geom.TwoPi).Scale(math.Abs(offset()))), R: d.R + offset()})

		// Internally near-tangent: e inside d, touching it at one point.
		d = random()
		re := d.R * (0.05 + 0.9*rng.Float64())
		e := geom.Disk{C: d.C.Add(geom.Unit(rng.Float64() * geom.TwoPi).Scale(d.R - re + offset())), R: re}
		out(d, e)

		// Hub-tangent disks, with each other and with an ordinary disk.
		h := disk(0.5+2*rng.Float64(), 1)
		out(h, random())
		out(h, disk(0.5+2*rng.Float64(), 1))
		out(h, geom.Disk{C: h.C.Scale(-1), R: h.R}) // touching externally at the hub

		// Disks that reach the hub only within geom.Eps.
		out(disk(0.5+2*rng.Float64(), 1+geom.Eps*rng.Float64()/2.5), random())

		// Disks just inside and just outside the far-root margin, against
		// an ordinary disk and against each other.
		r := 0.5 + 2*rng.Float64()
		edge := (1 - geom.FarRootMargin) * r
		x := edge
		for s := rng.Intn(17) - 8; s != 0; {
			if s > 0 {
				x, s = math.Nextafter(x, math.Inf(1)), s-1
			} else {
				x, s = math.Nextafter(x, 0), s+1
			}
		}
		m := geom.Disk{C: geom.Unit(rng.Float64() * geom.TwoPi).Scale(x), R: r}
		if rng.Intn(2) == 0 {
			m.C = geom.Pt(x, 0) // ‖c‖² == x²: lands on the threshold exactly
		}
		out(m, random())
		out(m, disk(r*(0.5+rng.Float64()), 1-geom.FarRootMargin*(1+offset())))

		// Extreme radius ratios: a small disk crossing a large one near
		// the large disk's hub-side boundary.
		big := disk(1, 1-math.Ldexp(1, -rng.Intn(40)))
		small := math.Ldexp(1, -rng.Intn(30))
		u := big.C.Scale(-1 / math.Max(big.C.Norm(), 1e-300))
		out(big, geom.Disk{C: u.Scale(small * rng.Float64()), R: small})
	}
}

// FuzzCrossingAngles is TestCrossingAnglesBitIdentical's assertion on
// fuzzed pairs and spans: disk d = (cx, cy, r) and its perturbation
// e = (cx+dx, cy+dy, r+dr), on the span (a, b) and the spans of spansFor.
// Small perturbations reach the near-coincident and near-tangent
// families; pairs that are not local disk sets are skipped.
func FuzzCrossingAngles(f *testing.F) {
	f.Add(0.3, 0.1, 1.0, -0.5, 0.2, 0.4, 0.0, geom.TwoPi)
	f.Add(1.0, 0.0, 1.0, -2.0, 0.0, 0.0, 1.0, 2.0)                      // hub-tangent, touching at the hub
	f.Add(0.5, 0.5, 1.0, 1e-12, -1e-12, 1.5e-9, 0.0, math.Pi)           // near-coincident
	f.Add(0.2, 0.0, 1.0, 0.3, 0.0, -0.3+1e-12, math.Pi/4, 3*math.Pi/4)  // internally near-tangent
	f.Add((1-geom.FarRootMargin)*2, 0.0, 2.0, 0.0, 0.0, -1.0, 0.5, 6.0) // on the margin
	f.Add(0.999999, 0.0, 1.0, -1.0, 1e-3, 1e-3-1.0, -1.0, 1.0)          // extreme radius ratio
	f.Fuzz(func(t *testing.T, cx, cy, r, dx, dy, dr, a, b float64) {
		d := geom.Disk{C: geom.Pt(cx, cy), R: r}
		e := geom.Disk{C: geom.Pt(cx+dx, cy+dy), R: r + dr}
		for _, x := range []geom.Disk{d, e} {
			if !(x.R > 0) || math.IsInf(x.R, 0) || !x.ContainsOrigin() {
				return
			}
		}
		rng := rand.New(rand.NewSource(int64(math.Float64bits(cx))))
		checkPair(t, rng, d, e)
		checkPair(t, rng, e, d)
		disks := []geom.Disk{d, e}
		all, an := skyline.CrossingAnglesReference(disks, 0, 1)
		got, gn := skyline.CrossingAngles(disks, 0, 1, a, b)
		k := 0
		for _, c := range all[:an] {
			if !geom.AngleStrictlyInSpan(c, a, b) {
				continue
			}
			if k >= gn || math.Float64bits(got[k]) != math.Float64bits(c) {
				t.Fatalf("span (%v, %v): crossingAngles = %v, reference %v", a, b, got[:gn], all[:an])
			}
			k++
		}
		if k != gn {
			t.Fatalf("span (%v, %v): crossingAngles = %v, reference %v", a, b, got[:gn], all[:an])
		}
	})
}
