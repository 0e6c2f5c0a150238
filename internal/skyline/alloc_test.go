package skyline

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// Steady-state ComputeInto — a caller-held Scratch and a reused result
// slice — must be allocation-free once the buffers are warm. This is the
// contract the whole-network engine's per-node loop relies on; any future
// per-merge garbage (the sort+dedupe step this PR removed allocated on
// every merge) fails here immediately.
func TestComputeIntoSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	var sc Scratch
	var dst Skyline
	for _, n := range []int{3, 17, 64, 200} {
		disks := randomLocalSet(rng, n)
		var err error
		// Warm-up: grow the scratch and the destination to steady state.
		for i := 0; i < 3; i++ {
			if dst, err = sc.ComputeInto(dst, disks); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			dst, err = sc.ComputeInto(dst, disks)
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("n=%d: steady-state ComputeInto allocated %.1f objects/run, want 0", n, allocs)
		}
	}
}

// Instrumented ComputeInto must stay allocation-free too: the sharded
// counters, the compute timer (Stopwatch start/stop), and the arc-count
// histogram all write to preallocated per-shard cells, so turning
// metrics on costs atomics, never garbage. This is the contract that
// lets mldcsim instrument production runs without touching the engine's
// zero-alloc guarantee.
func TestComputeIntoInstrumentedAllocs(t *testing.T) {
	Instrument(obs.NewRegistry())
	t.Cleanup(func() { Instrument(nil) })
	rng := rand.New(rand.NewSource(604))
	var sc Scratch
	var dst Skyline
	for _, n := range []int{3, 17, 64, 200} {
		disks := randomLocalSet(rng, n)
		var err error
		for i := 0; i < 3; i++ {
			if dst, err = sc.ComputeInto(dst, disks); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			dst, err = sc.ComputeInto(dst, disks)
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("n=%d: instrumented ComputeInto allocated %.1f objects/run, want 0", n, allocs)
		}
	}
}

// Compute without a caller-held Scratch borrows one from the pool, so its
// amortized cost is O(1) allocations — the returned skyline — independent
// of input size, not the O(n log n) buffer churn of the old merge.
func TestComputeAmortizedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomizes Get/Put under the race detector; pool amortization is unmeasurable")
	}
	rng := rand.New(rand.NewSource(602))
	disks := randomLocalSet(rng, 128)
	var err error
	for i := 0; i < 3; i++ {
		if _, err = Compute(disks); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		_, err = Compute(disks)
	})
	if err != nil {
		t.Fatal(err)
	}
	// The result slice plus pool slack; the old pipeline measured in the
	// hundreds here.
	if allocs > 4 {
		t.Errorf("Compute allocated %.1f objects/run, want O(1) (≤ 4)", allocs)
	}
}

// The kinetic Into variants — the engine's per-event repair primitives —
// must be allocation-free once the Scratch and destination are warm. This
// is the contract that lets Update repair thousands of neighborhoods per
// tick without producing garbage.
func TestKineticIntoSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(605))
	var sc Scratch
	var dst Skyline
	for _, n := range []int{3, 17, 64} {
		disks := randomLocalSet(rng, n)
		sl, err := Compute(disks)
		if err != nil {
			t.Fatal(err)
		}
		slHead, err := Compute(disks[:n-1])
		if err != nil {
			t.Fatal(err)
		}
		moved := disks[n/2]
		tie := false
		ops := map[string]func(){
			"MoveDiskInto insert": func() { dst = sc.MoveDiskInto(dst, disks, slHead, n-1, &tie) },
			"RemoveDiskInto":      func() { dst = sc.RemoveDiskInto(dst, disks, sl, n/2, &tie) },
			"MoveDiskInto":        func() { disks[n/2] = moved; dst = sc.MoveDiskInto(dst, disks, sl, n/2, &tie) },
		}
		for name, op := range ops {
			for i := 0; i < 3; i++ {
				op() // warm-up: grow the scratch and destination
			}
			if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
				t.Errorf("n=%d: steady-state %s allocated %.1f objects/run, want 0", n, name, allocs)
			}
		}
	}
}

// Merge on caller-supplied skylines must likewise cost only its result.
func TestMergeAmortizedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomizes Get/Put under the race detector; pool amortization is unmeasurable")
	}
	rng := rand.New(rand.NewSource(603))
	disks := randomLocalSet(rng, 64)
	sa := computeRange(disks, 0, 32)
	sb := computeRange(disks, 32, 64)
	for i := 0; i < 3; i++ {
		Merge(disks, sa, sb)
	}
	allocs := testing.AllocsPerRun(100, func() {
		Merge(disks, sa, sb)
	})
	if allocs > 2 {
		t.Errorf("Merge allocated %.1f objects/run, want O(1) (≤ 2)", allocs)
	}
}
