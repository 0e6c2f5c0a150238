package skyline

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
)

// withRegistry installs a fresh registry for the test body and guarantees
// the package is de-instrumented afterwards.
func withRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	r := obs.NewRegistry()
	Instrument(r)
	t.Cleanup(func() { Instrument(nil) })
	return r
}

func TestInstrumentCountsCompute(t *testing.T) {
	r := withRegistry(t)
	rng := rand.New(rand.NewSource(42))
	disks := randomLocalSet(rng, 64)
	sl, err := Compute(disks)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Counter(MetricComputeTotal).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricComputeTotal, got)
	}
	// 64 leaves → 63 internal merge nodes.
	if got := r.Counter(MetricMergeTotal).Value(); got != 63 {
		t.Errorf("%s = %d, want 63", MetricMergeTotal, got)
	}
	// Recursion on 64 disks bottoms out at depth log2(64)+1 = 7.
	if got := r.Gauge(MetricRecursionDepth).Value(); got != 7 {
		t.Errorf("%s = %g, want 7", MetricRecursionDepth, got)
	}
	cases := r.Counter(MetricMergeCase0Total).Value() +
		r.Counter(MetricMergeCase1Total).Value() +
		r.Counter(MetricMergeCase2Total).Value()
	if cases == 0 {
		t.Error("merge case counters are all zero after a 64-disk Compute")
	}
	if got := r.Gauge(MetricMaxArcs).Value(); got != float64(len(sl)) {
		t.Errorf("%s = %g, want %d (the only compute's arc count)", MetricMaxArcs, got, len(sl))
	}
	if got := r.Gauge(MetricMaxArcBound).Value(); got != float64(2*len(disks)) {
		t.Errorf("%s = %g, want %d", MetricMaxArcBound, got, 2*len(disks))
	}
	if got := r.Counter(MetricBreakpointsTotal).Value(); got == 0 {
		t.Errorf("%s = 0 after a Compute", MetricBreakpointsTotal)
	}
	if got := r.Snapshot().Timers[MetricComputeSeconds].Count; got != 1 {
		t.Errorf("%s count = %d, want 1", MetricComputeSeconds, got)
	}
}

// TestLemma8RuntimeCheck is the runtime counterpart of the Lemma 8 proof:
// adversarial local sets go through the instrumented Compute and the
// observed arc-count metrics must never exceed the 2n bound — the
// arc-bound ratio gauge stays ≤ 1 and the violation counter stays 0.
func TestLemma8RuntimeCheck(t *testing.T) {
	r := withRegistry(t)
	rng := rand.New(rand.NewSource(1009))

	feed := func(label string, disks []geom.Disk) {
		t.Helper()
		if _, err := Compute(disks); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}

	// The paper's §4.1 worst case: one disk contributing k disjoint arcs.
	for _, k := range []int{3, 5, 16, 40, 100} {
		feed("section41", section41Disks(k))
	}
	// Duplicates: n identical disks must collapse, not accumulate arcs.
	dup := make([]geom.Disk, 32)
	for i := range dup {
		dup[i] = geom.Disk{C: geom.Pt(0.1, 0.1), R: 1}
	}
	feed("duplicates", dup)
	// Boundary-through-hub disks (ρ ≡ 0 on a half-circle) — the
	// degenerate family with interval-equal envelopes.
	tangent := make([]geom.Disk, 24)
	for i := range tangent {
		theta := geom.TwoPi * float64(i) / float64(len(tangent))
		tangent[i] = geom.Disk{C: geom.Unit(theta).Scale(1), R: 1}
	}
	feed("tangent-at-hub", tangent)
	// Co-circular centers with a near-tie radius.
	ring := make([]geom.Disk, 40)
	for i := range ring {
		theta := geom.TwoPi * float64(i) / float64(len(ring))
		ring[i] = geom.Disk{C: geom.Unit(theta).Scale(0.5), R: 1 + 1e-12*float64(i%2)}
	}
	feed("co-circular", ring)
	// Random stress, both radius models, including large sets.
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(200)
		feed("random-het", randomLocalSet(rng, n))
		feed("random-hom", randomHomogeneousSet(rng, n))
	}
	for trial := 0; trial < 5; trial++ {
		feed("random-large", randomLocalSet(rng, 768))
	}

	if v := r.Counter(MetricBoundViolations).Value(); v != 0 {
		t.Fatalf("%s = %d: some instance exceeded its 2n arc bound", MetricBoundViolations, v)
	}
	ratio := r.Gauge(MetricArcBoundRatio).Value()
	if ratio <= 0 || ratio > 1 || math.IsNaN(ratio) {
		t.Fatalf("%s = %g, want in (0, 1]: Lemma 8 must hold at runtime", MetricArcBoundRatio, ratio)
	}
	if r.Gauge(MetricMaxArcs).Value() > r.Gauge(MetricMaxArcBound).Value() {
		t.Fatalf("max arcs %g exceeds max 2n bound %g",
			r.Gauge(MetricMaxArcs).Value(), r.Gauge(MetricMaxArcBound).Value())
	}
	if r.Counter(MetricComputeTotal).Value() == 0 {
		t.Fatal("no computes recorded — instrumentation is not wired")
	}
}

// Instrumentation must never change results: same input, instrumented and
// not, gives bit-identical skylines.
func TestInstrumentationDoesNotChangeResults(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	disks := randomLocalSet(rng, 100)
	plain, err := Compute(disks)
	if err != nil {
		t.Fatal(err)
	}
	Instrument(obs.NewRegistry())
	defer Instrument(nil)
	instrumented, err := Compute(disks)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(instrumented) {
		t.Fatalf("instrumented Compute returned %d arcs, plain %d", len(instrumented), len(plain))
	}
	for i := range plain {
		if plain[i] != instrumented[i] {
			t.Fatalf("arc %d differs: %v vs %v", i, plain[i], instrumented[i])
		}
	}
}
