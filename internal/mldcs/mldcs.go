// Package mldcs formulates and solves the Minimum Local Disk Cover Set
// problem of the paper (§3.2): given a local disk set — the hub's own disk
// B(u₀, r₀) plus the disks of its 1-hop neighbors, every one of which
// contains the hub — find the smallest subset whose union equals the union
// of all the disks.
//
// By Theorem 3 the MLDCS is exactly the skyline set of the local disk set,
// and it is unique: every disk contributing an arc to the boundary of the
// union exclusively covers some region, so it belongs to every cover set,
// and the skyline set is itself a cover set. The package exposes both the
// O(n log n) skyline solution and a brute-force oracle used in tests.
package mldcs

import (
	"errors"
	"fmt"

	"repro/internal/geom"
	"repro/internal/skyline"
)

// ErrNotLocalSet is returned when the mutual-containment conditions of the
// problem input do not hold (some neighbor is out of the hub's range or
// vice versa).
var ErrNotLocalSet = errors.New("mldcs: input is not a local disk set")

// LocalSet is the input of the MLDCS problem: a hub disk B(u₀, r₀) and the
// disks of the hub's 1-hop neighbors. Validity requires, for every
// neighbor i, ‖u₀ − u_i‖ ≤ min(r₀, r_i): the neighbor is in the hub's
// range and the hub is in the neighbor's range (bidirectional links).
type LocalSet struct {
	Hub       geom.Disk   // the hub's own disk B(u₀, r₀)
	Neighbors []geom.Disk // the 1-hop neighbors' disks
}

// Validate checks the local-set conditions.
func (ls LocalSet) Validate() error {
	if !(ls.Hub.R > 0) {
		return fmt.Errorf("%w: hub radius %g is not positive", ErrNotLocalSet, ls.Hub.R)
	}
	for i, d := range ls.Neighbors {
		if !(d.R > 0) {
			return fmt.Errorf("%w: neighbor %d radius %g is not positive", ErrNotLocalSet, i, d.R)
		}
		dist := ls.Hub.C.Dist(d.C)
		if !geom.LinkWithin(dist, ls.Hub.R) {
			return fmt.Errorf("%w: neighbor %d at distance %g exceeds hub radius %g",
				ErrNotLocalSet, i, dist, ls.Hub.R)
		}
		if !geom.LinkWithin(dist, d.R) {
			return fmt.Errorf("%w: neighbor %d at distance %g exceeds its own radius %g "+
				"(hub not covered; link would be unidirectional)", ErrNotLocalSet, i, dist, d.R)
		}
	}
	return nil
}

// All returns the full local disk set with the hub first (index 0), all
// translated to the hub-at-origin frame used by the skyline package.
func (ls LocalSet) All() []geom.Disk {
	out := make([]geom.Disk, 0, len(ls.Neighbors)+1)
	out = append(out, ls.Hub.Translate(ls.Hub.C))
	for _, d := range ls.Neighbors {
		out = append(out, d.Translate(ls.Hub.C))
	}
	return out
}

// Result is a solved MLDCS instance.
type Result struct {
	// Cover holds the indices of the minimum local disk cover set into the
	// combined disk list: 0 is the hub, i ≥ 1 is Neighbors[i−1]. Sorted.
	Cover []int
	// Skyline is the boundary of the union, in the hub-at-origin frame.
	Skyline skyline.Skyline
}

// ContainsHub reports whether the hub's own disk is part of the cover,
// i.e. contributes arcs to the skyline.
func (r Result) ContainsHub() bool {
	for _, i := range r.Cover {
		if i == 0 {
			return true
		}
	}
	return false
}

// NeighborCover returns the cover restricted to neighbors, as indices into
// LocalSet.Neighbors. This is the forwarding set of the paper: the hub's
// own arcs are covered by its original transmission, so only neighbor
// disks need to relay.
func (r Result) NeighborCover() []int {
	out := make([]int, 0, len(r.Cover))
	for _, i := range r.Cover {
		if i > 0 {
			out = append(out, i-1)
		}
	}
	return out
}

// Solve computes the MLDCS of a local set with the paper's O(n log n)
// divide-and-conquer skyline algorithm.
func Solve(ls LocalSet) (Result, error) {
	if err := ls.Validate(); err != nil {
		return Result{}, err
	}
	sl, err := skyline.Compute(ls.All())
	if err != nil {
		return Result{}, err
	}
	return Result{Cover: sl.Set(), Skyline: sl}, nil
}

// IsCover reports whether the subset (indices into the combined disk list,
// 0 = hub) covers the union of all disks. It applies Theorem 3 exactly:
// every skyline-set disk exclusively covers some region, so a subset is a
// cover if and only if it contains the whole skyline set.
func IsCover(ls LocalSet, subset []int) (bool, error) {
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

// IsCoverSampled is an algorithm-independent coverage test used as a test
// oracle: it checks envelope domination of the subset over the full set at
// a dense battery of angles, plus all pairwise crossing angles between
// subset and full disks. It never consults the skyline algorithms, so it
// can validate them. probes is the size of the uniform angle battery
// (e.g. 2048); higher is stricter.
func IsCoverSampled(ls LocalSet, subset []int, probes int) (bool, error) {
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

// BruteForceCover finds a minimum cover by exhaustive search over subsets
// in increasing cardinality, using the sampled coverage oracle. It is
// exponential and intended only for validating Solve on small inputs
// (len(Neighbors) ≤ about 16).
func BruteForceCover(ls LocalSet, probes int) ([]int, error) {
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
		ok, err := IsCoverSampled(ls, chosen, probes)
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
