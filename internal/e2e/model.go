// Package e2e is the seeded chaos harness for the mldcsd service. Its
// tests drive random action streams — ingest bursts, concurrent queries,
// malformed requests, mid-body client disconnects, restart-under-load —
// against a live HTTP server, then drain and check the converged state
// byte-for-byte against the offline sequential oracle (network.Build +
// Graph.LocalSet + mldcs.Solve). Failing seeds are banked into
// testdata/regression_seeds.json and replayed by CI forever after. See
// docs/TESTING.md ("Chaos e2e harness"). The package itself exports the
// oracle side, which svcbench's correctness gate shares: the intended
// world (Model) and its converged answer (OracleNodes).
package e2e

// Model is the harness's intended world: what the server must converge
// to once every accepted batch has applied. The harness applies its
// batches to it with the mldcsd apply semantics exactly (join upserts,
// move/radius/leave of absent nodes are ignored); internal/e2e and
// internal/mldcsd drifting apart here is precisely the bug class the
// final oracle comparison catches.
type Model struct {
	Nodes  map[int64]ModelNode
	NextID int64
}

// ModelNode is one intended node state.
type ModelNode struct {
	X, Y, R float64
}
