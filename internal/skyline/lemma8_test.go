package skyline

import (
	"math/rand"
	"testing"
)

// Lemma 8's proof hinges on inserting disks in decreasing radius order:
// then every insertion adds at most 2 to the arc count. Verify the
// per-insertion growth directly.
func TestDecreasingRadiusInsertionGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		disks := randomLocalSet(rng, n)
		order := decreasingRadiusOrder(disks)
		counts, err := incrementalArcGrowth(disks, order)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k < len(counts); k++ {
			if counts[k] > counts[k-1]+2 {
				t.Fatalf("trial %d: insertion %d grew arcs from %d to %d (> +2) "+
					"in decreasing-radius order", trial, k, counts[k-1], counts[k])
			}
			if counts[k] > 2*(k+1) {
				t.Fatalf("trial %d: after %d insertions arc count %d exceeds 2k",
					trial, k+1, counts[k])
			}
		}
	}
}

// In contrast, arbitrary insertion orders can grow the arc count by more
// than 2 in a single step (the paper's §4.1 counterexample), but the final
// skyline still satisfies the 2n bound. We check the final bound for random
// orders.
func TestArbitraryOrderFinalBound(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		disks := randomLocalSet(rng, n)
		order := rng.Perm(n)
		counts, err := incrementalArcGrowth(disks, order)
		if err != nil {
			t.Fatal(err)
		}
		if final := counts[len(counts)-1]; final > 2*n {
			t.Fatalf("trial %d: final arc count %d exceeds 2n=%d", trial, final, 2*n)
		}
	}
}

// The §4.1 construction demonstrates a single insertion adding k arcs when
// the inserted disk is smaller than the existing ones and inserted last.
func TestCounterexampleInsertionJump(t *testing.T) {
	disks := section41Disks(5)
	n := len(disks)
	// Insert the central disk (index n-1) last.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	counts, err := incrementalArcGrowth(disks, order)
	if err != nil {
		t.Fatal(err)
	}
	jump := counts[n-1] - counts[n-2]
	if jump <= 2 {
		t.Errorf("expected the last insertion to add more than 2 arcs, added %d "+
			"(counts %v)", jump, counts)
	}
	// Decreasing-radius order avoids the jump on the same input.
	counts2, err := incrementalArcGrowth(disks, decreasingRadiusOrder(disks))
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < len(counts2); k++ {
		if counts2[k] > counts2[k-1]+2 {
			t.Errorf("decreasing-radius order grew by %d at step %d (counts %v)",
				counts2[k]-counts2[k-1], k, counts2)
		}
	}
}

func TestDecreasingRadiusOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	disks := randomLocalSet(rng, 20)
	order := decreasingRadiusOrder(disks)
	for k := 1; k < len(order); k++ {
		if disks[order[k-1]].R < disks[order[k]].R {
			t.Fatalf("order not decreasing at %d: %v then %v",
				k, disks[order[k-1]].R, disks[order[k]].R)
		}
	}
}
