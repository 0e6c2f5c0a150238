package skyline

import (
	"math"
	"sort"

	"repro/internal/geom"
)

// ComputeNaive builds the skyline by the global-breakpoint method: collect
// every angle at which any two ρ curves can cross, sort them, and decide
// the winning disk on each elementary interval by evaluating the envelope
// at its midpoint. It runs in O(n² log n) and serves as the reference
// oracle for the divide-and-conquer algorithm in the test suite.
func ComputeNaive(disks []geom.Disk) (Skyline, error) {
	if err := checkLocal(disks); err != nil {
		return nil, err
	}
	if len(disks) == 1 {
		return single(0), nil
	}

	angles := []float64{0, geom.TwoPi}
	for i := 0; i < len(disks); i++ {
		for j := i + 1; j < len(disks); j++ {
			cands, cn := crossingAngles(disks, i, j, math.Inf(-1), math.Inf(1))
			angles = append(angles, cands[:cn]...)
		}
	}
	sort.Float64s(angles)
	angles = dedupeAngles(angles)

	var out Skyline
	for k := 0; k+1 < len(angles); k++ {
		a, b := angles[k], angles[k+1]
		if geom.AngleSliver(a, b) {
			continue
		}
		_, win := Rho(disks, (a+b)/2)
		out = append(out, Arc{Start: a, End: b, Disk: win})
	}
	if len(out) == 0 {
		// All breakpoints collapsed (e.g. duplicate disks only): single arc.
		_, win := Rho(disks, 1.0)
		out = single(win)
	}
	out[0].Start = 0
	out[len(out)-1].End = geom.TwoPi
	return out.Combine(), nil
}

// dedupeAngles removes angles closer than AngleEps to their predecessor.
// The input must be sorted.
func dedupeAngles(angles []float64) []float64 {
	out := angles[:0]
	for _, a := range angles {
		if len(out) == 0 || !geom.AngleSliver(out[len(out)-1], a) {
			out = append(out, a)
		}
	}
	return out
}
