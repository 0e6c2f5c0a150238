// Package geom is a fixture stub of repro/internal/geom: same import
// path and constant names, so the analyzer resolves references exactly as
// it does against the real package. The raw comparisons below are the
// predicates layer itself — the package is exempt, hence no want
// comments anywhere in this file.
package geom

import "math"

const (
	Eps             = 1e-9
	AngleEps        = 1e-9
	RhoEps          = Eps
	TwoPi           = 2 * math.Pi
	FarRootMargin   = 0x1p-10
	FarRootResidual = 0x1p-40
)

func LinkWithin(dist, r float64) bool { return dist <= r+Eps }

func LengthEq(a, b float64) bool { return math.Abs(a-b) <= Eps }

func RhoCmp(a, b float64) int {
	switch {
	case a > b+RhoEps:
		return 1
	case a < b-RhoEps:
		return -1
	}
	return 0
}

func NormalizeAngle(theta float64) float64 {
	theta = math.Mod(theta, TwoPi)
	if theta < 0 {
		theta += TwoPi
	}
	return theta
}

func AngleEq(a, b float64) bool {
	return math.Abs(NormalizeAngle(a)-NormalizeAngle(b)) <= AngleEps
}
