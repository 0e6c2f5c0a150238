package mldcs

import (
	"fmt"

	"repro/internal/geom"
)

// The test oracles of this package: Theorem 3's exact cover test, an
// algorithm-independent sampled cover test, and the brute-force minimum
// cover built on the latter.

// isCover reports whether the subset (indices into the combined disk list,
// 0 = hub) covers the union of all disks. It applies Theorem 3 exactly:
// every skyline-set disk exclusively covers some region, so a subset is a
// cover if and only if it contains the whole skyline set.
func isCover(ls LocalSet, subset []int) (bool, error) {
	r, err := Solve(ls)
	if err != nil {
		return false, err
	}
	n := len(ls.Neighbors) + 1
	in := make([]bool, n)
	for _, i := range subset {
		if i < 0 || i >= n {
			return false, fmt.Errorf("mldcs: subset index %d out of range [0, %d)", i, n)
		}
		in[i] = true
	}
	for _, i := range r.Cover {
		if !in[i] {
			return false, nil
		}
	}
	return true, nil
}

// isCoverSampled is an algorithm-independent coverage test used as a test
// oracle: it checks envelope domination of the subset over the full set at
// a dense battery of angles, plus all pairwise crossing angles between
// subset and full disks. It never consults the skyline algorithms, so it
// can validate them. probes is the size of the uniform angle battery
// (e.g. 2048); higher is stricter.
func isCoverSampled(ls LocalSet, subset []int, probes int) (bool, error) {
	if err := ls.Validate(); err != nil {
		return false, err
	}
	disks := ls.All()
	in := make([]bool, len(disks))
	for _, i := range subset {
		if i < 0 || i >= len(disks) {
			return false, fmt.Errorf("mldcs: subset index %d out of range [0, %d)", i, len(disks))
		}
		in[i] = true
	}
	sub := make([]geom.Disk, 0, len(subset))
	for i, d := range disks {
		if in[i] {
			sub = append(sub, d)
		}
	}
	if len(sub) == 0 {
		return false, nil
	}
	angles := make([]float64, 0, probes+4*len(disks)*len(sub))
	for k := 0; k < probes; k++ {
		angles = append(angles, float64(k)/float64(probes)*geom.TwoPi)
	}
	// The boundary angles of any "uncovered" region are circle–circle
	// intersection angles between a subset disk and a full-set disk, so
	// probing slightly to each side of all of them makes the test exact up
	// to tolerance.
	for _, d := range disks {
		for _, e := range sub {
			pts, ok := geom.CircleIntersections(d, e)
			if !ok {
				continue
			}
			for _, p := range pts {
				a := p.Angle()
				angles = append(angles, a, a-1e-5, a+1e-5)
			}
		}
	}
	const tol = 1e-7
	for _, theta := range angles {
		want := maxRay(disks, theta)
		got := maxRay(sub, theta)
		if got < want-tol*(1+want) {
			return false, nil
		}
	}
	return true, nil
}

func maxRay(disks []geom.Disk, theta float64) float64 {
	best := 0.0
	for _, d := range disks {
		if r := d.RayDist(theta); r > best {
			best = r
		}
	}
	return best
}

// bruteForceCover finds a minimum cover by exhaustive search over subsets
// in increasing cardinality, using the sampled coverage oracle. It is
// exponential and intended only for validating Solve on small inputs
// (len(Neighbors) ≤ about 16).
func bruteForceCover(ls LocalSet, probes int) ([]int, error) {
	if err := ls.Validate(); err != nil {
		return nil, err
	}
	n := len(ls.Neighbors) + 1
	if n > 22 {
		return nil, fmt.Errorf("mldcs: brute force limited to 21 neighbors, got %d", n-1)
	}
	idx := make([]int, 0, n)
	for size := 1; size <= n; size++ {
		idx = idx[:0]
		found, err := enumerate(ls, probes, idx, 0, size, n)
		if err != nil {
			return nil, err
		}
		if found != nil {
			return found, nil
		}
	}
	return nil, fmt.Errorf("mldcs: no cover found (unreachable for valid input)")
}

func enumerate(ls LocalSet, probes int, chosen []int, from, size, n int) ([]int, error) {
	if len(chosen) == size {
		ok, err := isCoverSampled(ls, chosen, probes)
		if err != nil {
			return nil, err
		}
		if ok {
			out := make([]int, size)
			copy(out, chosen)
			return out, nil
		}
		return nil, nil
	}
	for i := from; i <= n-(size-len(chosen)); i++ {
		found, err := enumerate(ls, probes, append(chosen, i), i+1, size, n)
		if err != nil || found != nil {
			return found, err
		}
	}
	return nil, nil
}
