// Package a holds the invariantcheck fixtures: skyline errors that are
// dropped (flagged) and handled (not flagged).
package a

import "repro/internal/skyline"

func drops(disks []float64) skyline.Skyline {
	s, _ := skyline.Compute(disks) // want `error from skyline\.Compute discarded`
	s.CheckInvariants(len(disks))  // want `error from skyline\.CheckInvariants discarded`
	_ = s.Validate(len(disks))     // want `error from skyline\.Validate discarded`
	return s
}

func handled(disks []float64) (skyline.Skyline, error) {
	s, err := skyline.Compute(disks)
	if err != nil {
		return nil, err
	}
	if err := s.CheckInvariants(len(disks)); err != nil {
		return nil, err
	}
	return s, nil
}

// okCount calls an error-free accessor as a bare statement operand.
func okCount(s skyline.Skyline) int { return s.ArcCount() }

func allowed(disks []float64) skyline.Skyline {
	s, _ := skyline.Compute(disks) //mldcslint:allow invariantcheck fixture inputs are pre-validated
	return s
}
