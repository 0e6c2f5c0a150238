//go:build mldcsmutate

package engine

// Mutation build: a deliberately injected engine bug, used to prove the
// chaos e2e harness (internal/e2e) is sensitive to real forwarding-set
// corruption — a harness that passes with this bug compiled in is not
// checking anything. Never ships: the tag exists only for
// `go test -tags mldcsmutate` (see docs/TESTING.md).
const mutationEnabled = true

// mutateForwarding drops the relay in the largest slot from the forwarding
// set of every node in a slot ≡ 5 (mod 17) — a silent "missing relay" bug, the
// exact failure class (an under-cover forwarding set) Theorem 3 rules out
// for the correct algorithm. Only sets with ≥ 2 relays are touched so the
// network stays plausibly connected and the bug survives casual smoke
// tests.
func mutateForwarding(fwd []int, u int) []int {
	if u%17 == 5 && len(fwd) >= 2 {
		return fwd[:len(fwd)-1]
	}
	return fwd
}
