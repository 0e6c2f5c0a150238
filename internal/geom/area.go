package geom

import "math/rand"

// Area estimation utilities. The skyline/MLDCS invariants are about equality
// of unions of disks; a Monte-Carlo estimator gives an algorithm-independent
// oracle for those invariants in tests and examples.

// unionContains reports whether p lies in the union of the given disks.
func unionContains(disks []Disk, p Point) bool {
	for _, d := range disks {
		if d.Contains(p) {
			return true
		}
	}
	return false
}

// boundingBox returns the axis-aligned bounding box of the disks' union.
// ok is false for an empty input.
func boundingBox(disks []Disk) (minX, minY, maxX, maxY float64, ok bool) {
	if len(disks) == 0 {
		return 0, 0, 0, 0, false
	}
	minX, minY = disks[0].C.X-disks[0].R, disks[0].C.Y-disks[0].R
	maxX, maxY = disks[0].C.X+disks[0].R, disks[0].C.Y+disks[0].R
	for _, d := range disks[1:] {
		if x := d.C.X - d.R; x < minX {
			minX = x
		}
		if y := d.C.Y - d.R; y < minY {
			minY = y
		}
		if x := d.C.X + d.R; x > maxX {
			maxX = x
		}
		if y := d.C.Y + d.R; y > maxY {
			maxY = y
		}
	}
	return minX, minY, maxX, maxY, true
}

// UnionAreaMC estimates the area of the union of disks by Monte-Carlo
// sampling with the provided source. samples must be > 0.
//
// Test support: the skyline area tests check the exact area against it.
func UnionAreaMC(disks []Disk, samples int, rng *rand.Rand) float64 {
	minX, minY, maxX, maxY, ok := boundingBox(disks)
	if !ok {
		return 0
	}
	w, h := maxX-minX, maxY-minY
	hit := 0
	for i := 0; i < samples; i++ {
		p := Point{minX + rng.Float64()*w, minY + rng.Float64()*h}
		if unionContains(disks, p) {
			hit++
		}
	}
	return float64(hit) / float64(samples) * w * h
}

// UnionsEqualMC tests whether two disk unions cover the same region, by
// sampling points from the bounding box of both unions and checking
// membership agreement. It returns the first witness point on which the two
// unions disagree, if any. This is a probabilistic oracle: agreement on all
// samples does not prove equality, but disagreement disproves it.
//
// Test support: the skyline property tests check covers against it.
func UnionsEqualMC(a, b []Disk, samples int, rng *rand.Rand) (equal bool, witness Point) {
	all := make([]Disk, 0, len(a)+len(b))
	all = append(all, a...)
	all = append(all, b...)
	minX, minY, maxX, maxY, ok := boundingBox(all)
	if !ok {
		return true, Point{}
	}
	w, h := maxX-minX, maxY-minY
	for i := 0; i < samples; i++ {
		p := Point{minX + rng.Float64()*w, minY + rng.Float64()*h}
		if unionContains(a, p) != unionContains(b, p) {
			// Ignore disagreements within Eps of some boundary: those are
			// tolerance artifacts, not genuine coverage differences.
			if !nearAnyBoundary(all, p) {
				return false, p
			}
		}
	}
	return true, Point{}
}

func nearAnyBoundary(disks []Disk, p Point) bool {
	const slack = 1e-6
	for _, d := range disks {
		if diff := d.C.Dist(p) - d.R; diff > -slack && diff < slack {
			return true
		}
	}
	return false
}
