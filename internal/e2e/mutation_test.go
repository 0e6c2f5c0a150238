//go:build mldcsmutate

package e2e

import (
	"io"
	"strings"
	"testing"
)

const mutationActive = true

// TestMutationCaught proves the harness has teeth: under the mldcsmutate
// build tag the engine silently drops one relay from forwarding sets of
// nodes in slots ≡ 5 (mod 17) — a bug class (wrong-but-plausible
// forwarding set) that every shape check passes. The oracle comparison
// must flag it as divergence on at least one seed; if it cannot, the
// harness is decoration.
func TestMutationCaught(t *testing.T) {
	caught := 0
	for seed := int64(1); seed <= 4; seed++ {
		cfg := runConfig(seed)
		_, err := RunSeed(cfg, io.Discard)
		if err == nil {
			continue
		}
		if !strings.Contains(err.Error(), "diverged") {
			t.Fatalf("seed %d: failed, but not with divergence: %v", seed, err)
		}
		t.Logf("seed %d: mutation detected: %.200v", seed, err)
		caught++
	}
	if caught == 0 {
		t.Fatal("engine mutation survived 4 chaos seeds undetected — the harness is not sensitive enough")
	}
}
