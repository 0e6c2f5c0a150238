package skyline

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// localSetInput is a testing/quick-generatable description of a local disk
// set: raw float triples folded into valid disks by its Disks method.
type localSetInput struct {
	Seed int64
	N    uint8
}

// Disks expands the compact input into a concrete local disk set with
// 1..32 disks.
func (in localSetInput) Disks() []geom.Disk {
	n := int(in.N)%32 + 1
	rng := rand.New(rand.NewSource(in.Seed))
	return randomLocalSet(rng, n)
}

// Property: the skyline envelope equals max_i ρ_i(θ) at arbitrary angles.
func TestQuickEnvelopeIsMax(t *testing.T) {
	f := func(in localSetInput, rawTheta float64) bool {
		if math.IsNaN(rawTheta) || math.IsInf(rawTheta, 0) {
			return true
		}
		disks := in.Disks()
		s, err := Compute(disks)
		if err != nil {
			return false
		}
		theta := geom.NormalizeAngle(rawTheta)
		want, _ := rho(disks, theta)
		got := envelopeValue(disks, s, theta)
		return math.Abs(got-want) <= 1e-6*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: every disk in the skyline set exclusively covers some region
// (Theorem 3's forward direction): there is an angle where it is the strict
// unique maximum among all disks.
func TestQuickSkylineDisksHaveWitness(t *testing.T) {
	f := func(in localSetInput) bool {
		disks := in.Disks()
		s, err := Compute(disks)
		if err != nil {
			return false
		}
		for _, a := range s {
			if a.Span() < 1e-6 {
				continue // tolerance slivers have no robust witness
			}
			mid := (a.Start + a.End) / 2
			rho := disks[a.Disk].RayDist(mid)
			for j := range disks {
				if j == a.Disk {
					continue
				}
				if disks[j].RayDist(mid) > rho+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: the union of the skyline-set disks equals the union of all
// disks (Theorem 3: the skyline set is a disk cover set). Checked by
// Monte-Carlo sampling.
func TestQuickSkylineSetCoversUnion(t *testing.T) {
	f := func(in localSetInput) bool {
		disks := in.Disks()
		s, err := Compute(disks)
		if err != nil {
			return false
		}
		cover := make([]geom.Disk, 0, len(disks))
		for _, i := range s.Set() {
			cover = append(cover, disks[i])
		}
		rng := rand.New(rand.NewSource(in.Seed ^ 0x5eed))
		eq, _ := geom.UnionsEqualMC(disks, cover, 2000, rng)
		return eq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: Lemma 8 — the skyline of n disks has at most 2n arcs.
func TestQuickLemma8ArcBound(t *testing.T) {
	f := func(in localSetInput) bool {
		disks := in.Disks()
		s, err := Compute(disks)
		if err != nil {
			return false
		}
		return s.ArcCount() <= 2*len(disks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the skyline is scale- and rotation-equivariant: scaling all
// disks by k > 0 or rotating them about the hub leaves the skyline set
// unchanged.
func TestQuickScaleRotationInvariance(t *testing.T) {
	f := func(in localSetInput, rawScale, rawRot float64) bool {
		if math.IsNaN(rawScale) || math.IsInf(rawScale, 0) ||
			math.IsNaN(rawRot) || math.IsInf(rawRot, 0) {
			return true
		}
		k := 0.5 + math.Abs(math.Mod(rawScale, 4)) // scale in [0.5, 4.5)
		phi := geom.NormalizeAngle(rawRot)
		cos, sin := math.Cos(phi), math.Sin(phi)
		disks := in.Disks()
		xformed := make([]geom.Disk, len(disks))
		for i, d := range disks {
			c := geom.Pt(k*(d.C.X*cos-d.C.Y*sin), k*(d.C.X*sin+d.C.Y*cos))
			xformed[i] = geom.Disk{C: c, R: k * d.R}
		}
		a, err := Compute(disks)
		if err != nil {
			return false
		}
		b, err := Compute(xformed)
		if err != nil {
			return false
		}
		sa, sb := a.Set(), b.Set()
		if len(sa) != len(sb) {
			return false
		}
		for i := range sa {
			if sa[i] != sb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: adding a disk that is contained in an existing disk never
// changes the skyline set.
func TestQuickDominatedDiskIrrelevant(t *testing.T) {
	f := func(in localSetInput, which uint8, shrink float64) bool {
		if math.IsNaN(shrink) || math.IsInf(shrink, 0) {
			return true
		}
		disks := in.Disks()
		host := disks[int(which)%len(disks)]
		// A concentric shrunken copy of host is dominated by it.
		k := 0.1 + 0.8*math.Abs(math.Mod(shrink, 1))
		sub := geom.Disk{C: host.C.Scale(1 - (1-k)*0), R: host.R * k}
		// Keep it a local disk: it must still contain the origin. Shrink
		// the center toward the origin proportionally.
		sub.C = host.C.Scale(k)
		if !sub.ContainsOrigin() {
			return true
		}
		if !host.ContainsDisk(sub) {
			return true
		}
		a, err := Compute(disks)
		if err != nil {
			return false
		}
		b, err := Compute(append(disks[:len(disks):len(disks)], sub))
		if err != nil {
			return false
		}
		sa, sb := a.Set(), b.Set()
		if len(sa) != len(sb) {
			return false
		}
		for i := range sa {
			if sa[i] != sb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
