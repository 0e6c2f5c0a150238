// Package skyline implements the paper's core contribution: computing the
// skyline (the boundary of the union) of a local disk set — a set of disks
// that all contain a common hub point — and hence, by Theorem 3 of the
// paper, its minimum local disk cover set.
//
// All functions in this package work in a frame where the hub is the
// origin. Because every disk contains the origin, the union of the disks is
// star-shaped with respect to it and each ray from the origin crosses the
// boundary exactly once (Corollary 2). The skyline is therefore the upper
// envelope of the per-disk ray-distance functions ρ_i(θ) over θ ∈ [0, 2π).
//
// Compute is the paper's construction: divide-and-conquer with the
// three-step Merge, O(n log n) by Lemma 8 and Theorem 9. Scratch holds its
// allocation-free form and the kinetic operations (RemoveDiskInto,
// MoveDiskInto) that repair a skyline for one changed disk.
// ComputeNaive, a global-breakpoint O(n² log n) construction, stays
// exported as the reference oracle that other packages' differential tests
// compare whole networks against; the incremental (decreasing-radius)
// construction behind Lemma 8's proof lives in this package's tests.
package skyline

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/geom"
)

// Arc is one maximal piece of the skyline contributed by a single disk:
// the paper's 4-tuple (α_i, u_j, r_j, α_{i+1}) with the center and radius
// replaced by an index into the caller's disk slice.
type Arc struct {
	Start float64 // start angle, measured at the hub, in [0, 2π]
	End   float64 // end angle, Start < End ≤ 2π
	Disk  int     // index of the contributing disk
}

// Span returns the angular width of the arc.
func (a Arc) Span() float64 { return a.End - a.Start }

// String implements fmt.Stringer.
func (a Arc) String() string {
	return fmt.Sprintf("[%.4f°..%.4f° d%d]", geom.Degrees(a.Start), geom.Degrees(a.End), a.Disk)
}

// Skyline is a full skyline: a sequence of arcs sorted by angle that
// exactly tiles [0, 2π). Arcs crossing the positive x-axis are split at 0,
// as in the paper, so Start angles are non-decreasing and the first arc
// starts at 0 while the last ends at 2π.
type Skyline []Arc

// Validate checks the structural invariants of a skyline over n disks:
// non-empty, contiguous arcs covering exactly [0, 2π), positive spans, and
// disk indices in range. It returns a descriptive error on the first
// violation.
func (s Skyline) Validate(n int) error {
	if len(s) == 0 {
		return fmt.Errorf("skyline: empty arc list")
	}
	if !geom.AngleEq(s[0].Start, 0) {
		return fmt.Errorf("skyline: first arc starts at %g, want 0", s[0].Start)
	}
	if !geom.AngleEq(s[len(s)-1].End, geom.TwoPi) {
		return fmt.Errorf("skyline: last arc ends at %g, want 2π", s[len(s)-1].End)
	}
	for i, a := range s {
		if a.Disk < 0 || a.Disk >= n {
			return fmt.Errorf("skyline: arc %d references disk %d, have %d disks", i, a.Disk, n)
		}
		if a.End <= a.Start {
			return fmt.Errorf("skyline: arc %d has non-positive span [%g, %g]", i, a.Start, a.End)
		}
		if i > 0 && !geom.AngleEq(s[i-1].End, a.Start) {
			return fmt.Errorf("skyline: gap between arc %d (ends %g) and arc %d (starts %g)",
				i-1, s[i-1].End, i, a.Start)
		}
	}
	return nil
}

// At returns the index (within s) of the arc containing angle theta, which
// is normalized to [0, 2π) first. The skyline must be valid.
func (s Skyline) At(theta float64) int {
	theta = geom.NormalizeAngle(theta)
	// Binary search for the first arc with End > theta.
	i := sort.Search(len(s), func(i int) bool { return s[i].End > theta })
	if i == len(s) {
		i = len(s) - 1
	}
	return i
}

// DiskAt returns the disk index active on the skyline at angle theta.
func (s Skyline) DiskAt(theta float64) int { return s[s.At(theta)].Disk }

// Set returns the skyline set: the sorted indices of all disks that
// contribute at least one arc. By Theorem 3 this is the minimum local disk
// cover set of the input.
func (s Skyline) Set() []int {
	out := make([]int, 0, len(s))
	for _, a := range s {
		out = append(out, a.Disk)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// ArcCount returns the number of arcs counting an arc split at the positive
// x-axis as one arc, i.e. the quantity bounded by 2n in Lemma 8. The stored
// representation splits arcs at 0/2π for convenience; if the first and last
// arcs come from the same disk they are one geometric arc.
func (s Skyline) ArcCount() int {
	n := len(s)
	if n > 1 && s[0].Disk == s[n-1].Disk {
		return n - 1
	}
	return n
}

// Combine joins adjacent arcs contributed by the same disk (Step 3 of
// the paper's Merge) and drops arcs with span below geom.AngleEps, which
// arise as alignment slivers. The receiver is not modified.
func (s Skyline) Combine() Skyline {
	out := make(Skyline, 0, len(s))
	for _, a := range s {
		if geom.AngleSliver(a.Start, a.End) {
			// Sliver: extend the previous arc over it instead of keeping it.
			if len(out) > 0 {
				out[len(out)-1].End = a.End
			}
			continue
		}
		if len(out) > 0 && out[len(out)-1].Disk == a.Disk {
			out[len(out)-1].End = a.End
			continue
		}
		out = append(out, a)
	}
	if len(out) == 0 && len(s) > 0 {
		// Everything was a sliver (can only happen with pathological eps
		// settings); fall back to a single arc from the first input.
		out = Skyline{{Start: 0, End: geom.TwoPi, Disk: s[0].Disk}}
	}
	if len(out) > 0 {
		out[0].Start = 0
		out[len(out)-1].End = geom.TwoPi
	}
	return out
}

// Clone returns a copy of the skyline.
func (s Skyline) Clone() Skyline {
	out := make(Skyline, len(s))
	copy(out, s)
	return out
}

// single returns the skyline of one disk: a single full-circle arc.
func single(disk int) Skyline {
	return Skyline{{Start: 0, End: geom.TwoPi, Disk: disk}}
}
