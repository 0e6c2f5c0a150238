// Package a holds the epspolicy failing fixtures: raw tolerance
// comparisons the analyzer must flag, including cases the old
// line-oriented scripts/lint-eps.sh provably missed (a comparison split
// across lines under an aliased import, and a locally-propagated
// tolerance).
package a

import (
	tol "repro/internal/geom"
)

func direct(d, r float64) bool {
	return d <= r+tol.Eps // want `comparison uses geom\.Eps outside internal/geom`
}

// aliasedMultiline is a case lint-eps.sh could not see: the comparison
// operator and the aliased epsilon reference sit on different lines, so
// no single line matched the grep's operator-and-constant pattern.
func aliasedMultiline(d, r float64) bool {
	return d <= // want `comparison uses geom\.Eps outside internal/geom; use a geom predicate \(LinkWithin`
		r+
			tol.Eps
}

// propagated is the other blind spot: the comparison line never mentions
// an epsilon constant at all.
func propagated(x float64) bool {
	t := tol.AngleEps
	return x > t // want `comparison uses geom\.AngleEps \(via t\) outside internal/geom; use a geom predicate \(AngleEq`
}

// chained taint: the tolerance flows through two locals.
func chained(a, b float64) bool {
	half := tol.RhoEps / 2
	width := half * 2
	return a < b-width // want `comparison uses geom\.RhoEps \(via width\)`
}

// hubClear re-derives the far-root margin test: the margin is a
// tolerance like the others, so only geom.HubWellInside compares
// against it.
func hubClear(norm, r float64) bool {
	return norm <= (1-tol.FarRootMargin)*r // want `comparison uses geom\.FarRootMargin outside internal/geom; use a geom predicate \(HubWellInside\)`
}

const tieEps = 1e-9 // want `local epsilon constant "tieEps" outside internal/geom`

func allowed(d, r float64) bool {
	return d <= r+tol.Eps //mldcslint:allow epspolicy fixture demonstrating the escape hatch
}

// cells shows where taint legitimately stops: the Eps-widened scan window
// is absorbed into an integer cell index, so comparing the index is fine.
func cells(x, r, cell float64, max int) bool {
	w := x + r + tol.Eps
	c := int(w / cell)
	return c <= max
}
