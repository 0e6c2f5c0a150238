package skyline

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/geom"
)

// diskFromChunk deterministically decodes a 6-byte chunk into one disk
// with radius in [0.5, 2.5], center distance a fraction of the radius, at
// an arbitrary angle. The decoded disk contains the origin by construction.
func diskFromChunk(chunk []byte) geom.Disk {
	u := binary.LittleEndian.Uint16(chunk[0:2])
	v := binary.LittleEndian.Uint16(chunk[2:4])
	w := binary.LittleEndian.Uint16(chunk[4:6])
	r := 0.5 + 2*float64(u)/65535
	frac := float64(v) / 65535 * 0.999
	theta := float64(w) / 65535 * geom.TwoPi
	return geom.Disk{C: geom.Unit(theta).Scale(frac * r), R: r}
}

// disksFromBytes decodes a byte string into a non-empty local disk set,
// one disk per 6-byte chunk.
func disksFromBytes(data []byte) []geom.Disk {
	var disks []geom.Disk
	for len(data) >= 6 {
		disks = append(disks, diskFromChunk(data[:6]))
		data = data[6:]
	}
	if len(disks) == 0 {
		disks = []geom.Disk{geom.NewDisk(0, 0, 1)}
	}
	return disks
}

// FuzzSkylineInvariants feeds arbitrary byte strings (decoded into valid
// local disk sets) to the divide-and-conquer skyline and checks the
// structural and semantic invariants: validity, the Lemma 8 arc bound, and
// envelope correctness at the arc midpoints.
func FuzzSkylineInvariants(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6})
	f.Add([]byte{255, 255, 0, 0, 128, 64, 9, 9, 9, 9, 9, 9})
	f.Add(make([]byte, 6*40))
	seed := make([]byte, 6*17)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 6*256 {
			data = data[:6*256]
		}
		disks := disksFromBytes(data)
		sl, err := Compute(disks)
		if err != nil {
			t.Fatalf("valid-by-construction input rejected: %v", err)
		}
		if err := sl.Validate(len(disks)); err != nil {
			t.Fatalf("invalid skyline: %v", err)
		}
		if sl.ArcCount() > 2*len(disks) {
			t.Fatalf("Lemma 8 violated: %d arcs for %d disks", sl.ArcCount(), len(disks))
		}
		for _, a := range sl {
			if a.Span() < 1e-7 {
				continue // sliver tolerance
			}
			mid := (a.Start + a.End) / 2
			got := disks[a.Disk].RayDist(mid)
			want, _ := rho(disks, mid)
			if math.Abs(got-want) > 1e-6*(1+want) {
				t.Fatalf("envelope mismatch at θ=%v: %v vs max %v", mid, got, want)
			}
		}
		// The exact area must be sane: within [max disk, sum of disks].
		area := sl.Area(disks)
		var maxA, sumA float64
		for _, d := range disks {
			a := math.Pi * d.R * d.R
			sumA += a
			if a > maxA {
				maxA = a
			}
		}
		if area < maxA-1e-6 || area > sumA+1e-6 {
			t.Fatalf("area %v outside [%v, %v]", area, maxA, sumA)
		}
	})
}

// FuzzMergeAgainstNaive cross-checks the divide-and-conquer result against
// the independent naive oracle on fuzzed inputs (bounded size: the oracle
// is quadratic).
func FuzzMergeAgainstNaive(f *testing.F) {
	f.Add([]byte{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120})
	f.Add(make([]byte, 6*9))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 6*24 {
			data = data[:6*24]
		}
		disks := disksFromBytes(data)
		a, err := Compute(disks)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ComputeNaive(disks)
		if err != nil {
			t.Fatal(err)
		}
		probes := make([]float64, 0, len(a)+len(b))
		for _, arc := range a {
			probes = append(probes, (arc.Start+arc.End)/2)
		}
		for _, arc := range b {
			probes = append(probes, (arc.Start+arc.End)/2)
		}
		for _, theta := range probes {
			va := disks[a.diskAt(theta)].RayDist(theta)
			vb := disks[b.diskAt(theta)].RayDist(theta)
			if math.Abs(va-vb) > 1e-6*(1+va) {
				t.Fatalf("dnc and naive disagree at θ=%v: %v vs %v", theta, va, vb)
			}
		}
	})
}
