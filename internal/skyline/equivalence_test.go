package skyline

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geom"
)

// The central cross-check: on random heterogeneous local disk sets, all
// the algorithms produce the same envelope and the same skyline set, the
// skyline validates, and the arc count respects Lemma 8's 2n bound.
func TestAlgorithmsAgreeHeterogeneous(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(40)
		disks := randomLocalSet(rng, n)
		ref, err := ComputeNaive(disks)
		if err != nil {
			t.Fatalf("trial %d: naive: %v", trial, err)
		}
		checkEnvelope(t, disks, ref, "naive")
		for _, alg := range algorithms[:1] { // dnc
			s, err := alg.fn(disks)
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, alg.name, err)
			}
			checkEnvelope(t, disks, s, alg.name)
			sameEnvelope(t, disks, ref, s, alg.name)
			sameSet(t, s.Set(), ref.Set(), alg.name)
			if s.ArcCount() > 2*n {
				t.Errorf("trial %d: %s: %d arcs for %d disks exceeds Lemma 8 bound",
					trial, alg.name, s.ArcCount(), n)
			}
		}
	}
}

func TestAlgorithmsAgreeHomogeneous(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(40)
		disks := randomHomogeneousSet(rng, n)
		ref, err := ComputeNaive(disks)
		if err != nil {
			t.Fatalf("trial %d: naive: %v", trial, err)
		}
		s, err := Compute(disks)
		if err != nil {
			t.Fatalf("trial %d: dnc: %v", trial, err)
		}
		checkEnvelope(t, disks, s, "dnc")
		sameEnvelope(t, disks, ref, s, "dnc-vs-naive")
		sameSet(t, s.Set(), ref.Set(), "dnc-vs-naive")
	}
}

func TestIncrementalMatchesDNC(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(30)
		disks := randomLocalSet(rng, n)
		a, err := Compute(disks)
		if err != nil {
			t.Fatal(err)
		}
		b, err := computeIncremental(disks)
		if err != nil {
			t.Fatal(err)
		}
		checkEnvelope(t, disks, b, "incremental")
		sameEnvelope(t, disks, a, b, "incremental-vs-dnc")
		sameSet(t, a.Set(), b.Set(), "incremental-vs-dnc")
	}
}

// Insertion order must not change the resulting envelope.
func TestInsertionOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(20)
		disks := randomLocalSet(rng, n)
		ref, err := computeIncremental(disks)
		if err != nil {
			t.Fatal(err)
		}
		order := rng.Perm(n)
		got, err := computeIncrementalOrder(disks, order)
		if err != nil {
			t.Fatal(err)
		}
		sameEnvelope(t, disks, ref, got, "order-invariance")
		sameSet(t, ref.Set(), got.Set(), "order-invariance")
	}
}

// Input order must not change the divide-and-conquer result either.
func TestInputPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(20)
		disks := randomLocalSet(rng, n)
		ref, err := Compute(disks)
		if err != nil {
			t.Fatal(err)
		}
		perm := rng.Perm(n)
		shuffled := make([]geom.Disk, n)
		for i, p := range perm {
			shuffled[i] = disks[p]
		}
		got, err := Compute(shuffled)
		if err != nil {
			t.Fatal(err)
		}
		// Translate the shuffled skyline set back to original indices.
		gotSet := got.Set()
		back := make([]int, 0, len(gotSet))
		for _, i := range gotSet {
			back = append(back, perm[i])
		}
		refSet := ref.Set()
		if len(back) != len(refSet) {
			t.Fatalf("trial %d: permuted input changed skyline set size: %v vs %v",
				trial, back, refSet)
		}
		inRef := make(map[int]bool, len(refSet))
		for _, i := range refSet {
			inRef[i] = true
		}
		for _, i := range back {
			if !inRef[i] {
				t.Fatalf("trial %d: disk %d in permuted set but not reference", trial, i)
			}
		}
	}
}

// MoveDiskInto, inserting each disk into the skyline of those before it,
// must keep the skyline equal to a full recomputation as disks stream in
// one by one (the dynamic-neighborhood path).
func TestInsertDiskMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(110))
	var sc Scratch
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(20)
		all := randomLocalSet(rng, n)
		sl, err := Compute(all[:1])
		if err != nil {
			t.Fatal(err)
		}
		for k := 2; k <= n; k++ {
			sl = sc.MoveDiskInto(nil, all[:k], sl, k-1, nil)
			if err := sl.Validate(k); err != nil {
				t.Fatal(err)
			}
			ref, err := Compute(all[:k])
			if err != nil {
				t.Fatal(err)
			}
			sameEnvelope(t, all[:k], sl, ref, "insert-disk")
			sameSet(t, sl.Set(), ref.Set(), "insert-disk")
		}
	}
}

// A coarse runtime sanity check of Theorem 9: quadrupling the input must
// grow the divide-and-conquer time far less than the ×16 a quadratic
// algorithm would show. Generous bounds keep this stable on loaded
// machines; the bench harness provides the precise curves.
func TestDnCScalesNearLinearithmic(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	rng := rand.New(rand.NewSource(111))
	measure := func(n int) float64 {
		disks := randomLocalSet(rng, n)
		best := math.MaxFloat64
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			if _, err := Compute(disks); err != nil {
				t.Fatal(err)
			}
			if d := float64(time.Since(start).Nanoseconds()); d < best {
				best = d
			}
		}
		return best
	}
	t1 := measure(2000)
	t4 := measure(8000)
	if ratio := t4 / t1; ratio > 12 {
		t.Errorf("time grew ×%.1f for ×4 input — worse than n log n should allow", ratio)
	}
}

// Merge must be symmetric in its skyline arguments.
func TestMergeSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(16)
		disks := randomLocalSet(rng, n)
		half := n / 2
		sa := computeRange(disks, 0, half)
		sb := computeRange(disks, half, n)
		ab := merge(disks, sa, sb)
		ba := merge(disks, sb, sa)
		sameEnvelope(t, disks, ab, ba, "merge-symmetry")
		sameSet(t, ab.Set(), ba.Set(), "merge-symmetry")
	}
}

// Merging a skyline with itself must be the identity on the envelope.
func TestMergeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(108))
	disks := randomLocalSet(rng, 12)
	s, err := Compute(disks)
	if err != nil {
		t.Fatal(err)
	}
	m := merge(disks, s, s)
	sameEnvelope(t, disks, s, m, "merge-idempotent")
	sameSet(t, s.Set(), m.Set(), "merge-idempotent")
}
