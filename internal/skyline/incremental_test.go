package skyline

import (
	"fmt"
	"sort"

	"repro/internal/geom"
)

// The incremental construction: insert the disks one at a time, each
// insertion a Merge against a single-arc skyline. In decreasing radius
// order it is the arrangement of Lemma 8's proof, where every insertion
// adds at most two arcs; O(n²) worst case. It is an independently built
// cross-check of Compute and the subject of the A2 ablation
// (BenchmarkAblationOrder); production runs only the divide-and-conquer.

// computeIncremental inserts the disks in decreasing radius order.
func computeIncremental(disks []geom.Disk) (Skyline, error) {
	return computeIncrementalOrder(disks, decreasingRadiusOrder(disks))
}

// decreasingRadiusOrder returns disk indices sorted by decreasing radius,
// ties broken by increasing index.
func decreasingRadiusOrder(disks []geom.Disk) []int {
	order := make([]int, len(disks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return disks[order[a]].R > disks[order[b]].R
	})
	return order
}

// computeIncrementalOrder inserts the disks in the given order (a
// permutation of 0..len(disks)-1). The resulting envelope is independent of
// the order; only the sizes of the intermediate skylines differ.
func computeIncrementalOrder(disks []geom.Disk, order []int) (Skyline, error) {
	if err := checkLocal(disks); err != nil {
		return nil, err
	}
	if err := checkPermutation(order, len(disks)); err != nil {
		return nil, err
	}
	sl := single(order[0])
	for _, i := range order[1:] {
		sl = insertDisk(disks, sl, i)
	}
	return sl, nil
}

// incrementalArcGrowth inserts disks in the given order and records the
// arc count of the skyline after every insertion. The A2 tests use it to
// contrast decreasing-radius insertion (arc count ≤ 2k after k insertions,
// per Lemma 8) with arbitrary orders (arc count can jump by k in one step,
// per the paper's §4.1 counterexample).
func incrementalArcGrowth(disks []geom.Disk, order []int) ([]int, error) {
	if err := checkLocal(disks); err != nil {
		return nil, err
	}
	if err := checkPermutation(order, len(disks)); err != nil {
		return nil, err
	}
	counts := make([]int, 0, len(order))
	sl := single(order[0])
	counts = append(counts, sl.ArcCount())
	for _, i := range order[1:] {
		sl = insertDisk(disks, sl, i)
		counts = append(counts, sl.ArcCount())
	}
	return counts, nil
}

// insertDisk is one step of the incremental construction: the skyline of
// sl's disks plus disks[i], by Merge against the one-arc skyline of i.
func insertDisk(disks []geom.Disk, sl Skyline, i int) Skyline {
	return Merge(disks, sl, single(i))
}

func checkPermutation(order []int, n int) error {
	if len(order) != n {
		return fmt.Errorf("skyline: order has %d entries, want %d", len(order), n)
	}
	seen := make([]bool, n)
	for _, i := range order {
		if i < 0 || i >= n || seen[i] {
			return fmt.Errorf("skyline: order is not a permutation of 0..%d", n-1)
		}
		seen[i] = true
	}
	return nil
}
