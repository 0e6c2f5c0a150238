package skyline

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// TestSurgeryBoundsBitIdentical pins the span-bounded prunes to the
// reference surgery (refSurgery): over random heterogeneous and
// homogeneous local sets, hotspot-dense sets of a few hundred disks, and
// the adversarial families of adversarialLocalSet, every insert, remove,
// small slide and jump must return the reference's arcs bit for bit
// wherever the reference reports no tie, and may report a tie only where
// the reference does.
func TestSurgeryBoundsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var sc Scratch
	var rs refSurgery
	var dst, refDst Skyline
	checks, ties := 0, 0
	check := func(label string, disks []geom.Disk) {
		t.Helper()
		n := len(disks)
		full, err := Compute(disks)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		run := func(op surgeryOp, disks []geom.Disk, sl Skyline, k int) {
			t.Helper()
			var got, want Skyline
			var tie, refTie bool
			got, want, tie, refTie = runSurgery(&sc, &rs, op, dst, refDst, disks, sl, k)
			dst, refDst = got, want
			checks++
			if refTie {
				ties++
			}
			if msg := surgeryDivergence(got, want, tie, refTie); msg != "" {
				t.Fatalf("%s: %v of disk %d of %v over %v: the surgery %s\n got %v (tie %v)\nwant %v (tie %v)",
					label, op, k, disks, sl, msg, got, tie, want, refTie)
			}
		}
		if n >= 2 {
			// Insert the last disk into the skyline of the others, and
			// remove a random one.
			rest, err := Compute(disks[:n-1])
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			run(opInsert, disks, rest, n-1)
			run(opRemove, disks, full, rng.Intn(n))
		}
		// Slide a random disk by up to 2% of its radius, then jump one.
		for _, step := range []float64{0.02, 2} {
			moved := append([]geom.Disk(nil), disks...)
			k := rng.Intn(n)
			d := moved[k]
			d.C = d.C.Add(geom.Pt(rng.Float64()-0.5, rng.Float64()-0.5).Scale(step * d.R))
			if nc := d.C.Norm(); nc > d.R*0.999 {
				d.C = d.C.Scale(d.R * 0.999 / nc)
			}
			moved[k] = d
			run(opMove, moved, full, k)
		}
	}
	for i := 0; i < 3000; i++ {
		n := 1 + rng.Intn(40)
		check("heterogeneous", randomLocalSet(rng, n))
		check("homogeneous", randomHomogeneousSet(rng, n))
		check("adversarial", adversarialLocalSet(rng))
	}
	for i := 0; i < 60; i++ {
		check("hotspot", hotspotLocalSet(rng, 200+rng.Intn(200)))
	}
	t.Logf("%d surgeries bit-identical to the reference (%d with a reference tie)", checks, ties)
}

// hotspotLocalSet returns the local set of a hub inside a hotspot: n
// disks with radii in [1, 2] whose centers crowd a few directions, as a
// zipf hotspot deployment packs them.
func hotspotLocalSet(rng *rand.Rand, n int) []geom.Disk {
	dirs := make([]float64, 1+rng.Intn(4))
	for i := range dirs {
		dirs[i] = rng.Float64() * geom.TwoPi
	}
	disks := make([]geom.Disk, n)
	for i := range disks {
		r := 1 + rng.Float64()
		theta := dirs[rng.Intn(len(dirs))] + rng.NormFloat64()*0.3
		disks[i] = geom.Disk{C: geom.Unit(theta).Scale(r * (0.2 + 0.79*rng.Float64())), R: r}
	}
	return disks
}

// adversarialLocalSet returns a small local set from one of the families
// where a span bound could go wrong: hub-tangent disks (‖c‖ = r), disks
// whose centers lie 1e-12 apart, a dominant disk that owns a span wider
// than π, and pairs mirrored about the x axis, whose breakpoints and
// away directions sit on the 0/2π seam.
func adversarialLocalSet(rng *rand.Rand) []geom.Disk {
	random := func() geom.Disk {
		r := 0.5 + 2*rng.Float64()
		return geom.Disk{C: geom.Unit(rng.Float64() * geom.TwoPi).Scale(r * rng.Float64() * 0.999), R: r}
	}
	n := 1 + rng.Intn(6)
	disks := make([]geom.Disk, 0, 3*n+2)
	switch rng.Intn(4) {
	case 0: // hub-tangent disks among ordinary ones
		for i := 0; i < n; i++ {
			r := 0.5 + 2*rng.Float64()
			disks = append(disks, geom.Disk{C: geom.Unit(rng.Float64() * geom.TwoPi).Scale(r), R: r}, random())
		}
	case 1: // centers 1e-12 apart
		for i := 0; i < n; i++ {
			d := random()
			e := geom.Disk{C: d.C.Add(geom.Unit(rng.Float64() * geom.TwoPi).Scale(1e-12)), R: d.R}
			if rng.Intn(2) == 0 {
				e.R += 1e-12
			}
			disks = append(disks, d, e)
		}
	case 2: // a dominant disk owns a span wider than π
		disks = append(disks, geom.Disk{C: geom.Unit(rng.Float64() * geom.TwoPi).Scale(0.1 * rng.Float64()), R: 2})
		side := rng.Float64() * geom.TwoPi
		for i := 0; i < n; i++ {
			disks = append(disks, geom.Disk{C: geom.Unit(side + rng.NormFloat64()*0.4).Scale(0.9 + 0.099*rng.Float64()), R: 1 + 0.2*rng.Float64()})
		}
	default: // mirrored pairs and centers on the seam
		for i := 0; i < n; i++ {
			d := random()
			disks = append(disks, d, geom.Disk{C: geom.Pt(d.C.X, -d.C.Y), R: d.R})
		}
		for _, y := range []float64{0, 1e-13, -1e-13} {
			x := 0.5 * rng.Float64()
			if rng.Intn(2) == 0 {
				x = -x
			}
			disks = append(disks, geom.Disk{C: geom.Pt(x, y), R: 0.6 + rng.Float64()})
		}
	}
	rng.Shuffle(len(disks), func(i, j int) { disks[i], disks[j] = disks[j], disks[i] })
	return disks
}

// FuzzSpanBounds checks the surgery's span bounds on a hub-containing disk
// (cx, cy, r) and a span [a, b] within [0, 2π]: spanFloor and spanCeil
// must bracket the disk's ray distance at both ends, the midpoint and 15
// interior probes (to the rounding of RayDist), and
// geom.SpanSide must place the center and the away direction as
// geom.AngleInSpan places their atan2 angles whenever those lie more than
// 2·geom.SpanBand from both ends, never outside where AngleInSpan says inside,
// and nowhere when they are shorter than geom.SpanSideMin.
func FuzzSpanBounds(f *testing.F) {
	f.Add(0.3, 0.1, 1.0, 0.5, 2.0)
	f.Add(0.3, 0.1, 1.0, 0.0, geom.TwoPi)                     // the whole circle
	f.Add(-0.5, 0.0, 1.0, 0.0, 4.0)                           // wider than π, center on the seam
	f.Add(0.5, 1e-13, 1.0, 1e-12, 6.0)                        // away direction a hair past π
	f.Add(1.0, 0.0, 1.0, math.Pi-1e-9, math.Pi+1e-9)          // hub-tangent, away direction mid-span
	f.Add(0.0, 0.0, 1.5, 1.0, 1.0+math.Pi)                    // centered: ρ is constant
	f.Add(0.6, 0.8, 1.0, math.Atan2(-0.8, -0.6)+math.Pi, 5.0) // away direction at an end
	f.Add(1e-300, 0.0, 1.0, 1.0, 2.0)                         // center too close to the hub to place
	f.Add(0.5, 0.0, 1.0, 1e-9, geom.TwoPi-1e-9)               // wide span, center opposite its gap
	f.Fuzz(func(t *testing.T, cx, cy, r, a, b float64) {
		if a > b {
			a, b = b, a
		}
		d := geom.Disk{C: geom.Pt(cx, cy), R: r}
		if !(r > 1e-100 && r < 1e100) || !d.ContainsOrigin() || !(a >= 0 && b <= geom.TwoPi) {
			return
		}
		ea, eb := geom.Unit(a), geom.Unit(b)
		dmax := d.C.Norm() + d.R
		floor, ceil := spanFloor(d, ea, eb, a, b), spanCeil(d, dmax, ea, eb, a, b)
		if ceil > dmax {
			t.Fatalf("ceiling %v above the global maximum %v", ceil, dmax)
		}
		// RayDist rounds to about 1e-12·dmax, except where its discriminant
		// cancels: when (c·e)² falls below the rounding of r², which holds
		// r² − ‖c‖² only to √ε·r for a disk that nearly touches the hub,
		// it returns c·e itself, up to 2^-26·r from the true ρ.
		tol := 1e-12 * dmax
		if d.R-d.C.Norm() < 1e-6*d.R {
			tol = 0x1p-26 * d.R
		}
		for k := 0; k <= 16; k++ {
			theta := a + (b-a)*float64(k)/16
			switch k {
			case 0:
				theta = a
			case 16:
				theta = b
			}
			rho := d.RayDist(theta)
			if math.IsNaN(rho) { // the hub lies on the circle within Eps
				continue
			}
			if rho < floor-tol || rho > ceil+tol {
				t.Fatalf("ρ(%v) = %v outside [floor %v, ceiling %v] on span [%v, %v]", theta, rho, floor, ceil, a, b)
			}
		}
		for _, v := range []geom.Point{d.C, {X: -d.C.X, Y: -d.C.Y}} {
			side := geom.SpanSide(v, ea, eb, a, b)
			if math.Abs(v.X)+math.Abs(v.Y) < geom.SpanSideMin {
				if side != 0 {
					t.Fatalf("direction %v shorter than geom.SpanSideMin placed at %d", v, side)
				}
				continue
			}
			x := v.Angle()
			in := geom.AngleInSpan(x, a, b)
			if in && side < 0 {
				t.Fatalf("direction %v (angle %v): SpanSide says outside [%v, %v], AngleInSpan inside", v, x, a, b)
			}
			want := -1
			if in {
				want = +1
			}
			gap := math.Min(math.Abs(math.Remainder(x-a, geom.TwoPi)), math.Abs(math.Remainder(x-b, geom.TwoPi)))
			if gap > 2*geom.SpanBand && side != want {
				t.Fatalf("direction %v (angle %v, %v from the nearer end): SpanSide %d, AngleInSpan(%v, %v) %v",
					v, x, gap, side, a, b, in)
			}
		}
	})
}
