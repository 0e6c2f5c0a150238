// Package mldcs formulates and solves the Minimum Local Disk Cover Set
// problem of the paper (§3.2): given a local disk set — the hub's own disk
// B(u₀, r₀) plus the disks of its 1-hop neighbors, every one of which
// contains the hub — find the smallest subset whose union equals the union
// of all the disks.
//
// By Theorem 3 the MLDCS is exactly the skyline set of the local disk set,
// and it is unique: every disk contributing an arc to the boundary of the
// union exclusively covers some region, so it belongs to every cover set,
// and the skyline set is itself a cover set. The package exposes the
// O(n log n) skyline solution; the brute-force cover oracle that validates
// it lives in the package's tests.
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
