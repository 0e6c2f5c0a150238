package engine

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/skyline"
)

// Steady-state per-node recompute — same geometry, warm worker scratch —
// must not allocate: the skyline runs in the worker's skyline.Scratch, the
// canonical ordering uses the in-scratch merge sort, and unchanged outputs
// are compare-and-kept instead of re-copied. The subtest keeps its
// cache=false name from when the engine had a skyline cache; every node
// now recomputes its skyline, which is the path that name always covered.
func TestComputeNodeSteadyStateAllocs(t *testing.T) {
	nodes, _, err := benchDeployment(300, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("cache=false", func(t *testing.T) {
		e := New(Config{Workers: 1})
		if _, err := e.Compute(nodes); err != nil {
			t.Fatal(err)
		}
		sc := &scratch{}
		// Warm-up: grow this scratch's buffers before counting.
		for u := range nodes {
			if err := e.computeNode(u, sc); err != nil {
				t.Fatal(err)
			}
		}
		var nodeErr error
		allocs := testing.AllocsPerRun(5, func() {
			for u := range nodes {
				if err := e.computeNode(u, sc); err != nil {
					nodeErr = err
					return
				}
			}
		})
		if nodeErr != nil {
			t.Fatal(nodeErr)
		}
		if allocs != 0 {
			t.Errorf("steady-state recompute of %d nodes allocated %.1f objects/run, want 0",
				len(nodes), allocs)
		}
	})
}

// Instrumentation must not buy observability with hot-path garbage: with
// a live registry, an event sink, and span tracing all installed, the
// steady-state per-node recompute still runs at zero allocations. The
// warm-up deliberately runs past the span sampling budget so the measured
// iterations exercise the post-budget fast path (sharded counter add +
// closed-flag load), which is the steady state of any long run. Skyline
// instrumentation is installed too, so the per-node timer (Start/Stop on
// sharded cells) and arc histogram are part of what is being pinned. The
// subtest name is kept from the cached engine, as in
// TestComputeNodeSteadyStateAllocs.
func TestComputeNodeInstrumentedAllocs(t *testing.T) {
	nodes, _, err := benchDeployment(300, 7)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sink := obs.NewEventSink(io.Discard)
	Instrument(reg, sink)
	skyline.Instrument(reg)
	t.Cleanup(func() {
		Instrument(nil, nil)
		skyline.Instrument(nil)
	})
	t.Run("cache=false", func(t *testing.T) {
		e := New(Config{Workers: 1})
		if _, err := e.Compute(nodes); err != nil {
			t.Fatal(err)
		}
		sc := &scratch{}
		// Warm-up: grow the scratch buffers and exhaust the per-node
		// span budget so Begin is on its no-op fast path.
		for uint64(engInstr.Load().spanNode.Total()) <= obs.DefaultSpanLimit {
			for u := range nodes {
				if err := e.computeNode(u, sc); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := engInstr.Load().spanNode.SampledCount(); got < obs.DefaultSpanLimit {
			t.Fatalf("span budget not exhausted after warm-up: %d sampled", got)
		}
		var nodeErr error
		allocs := testing.AllocsPerRun(5, func() {
			for u := range nodes {
				if err := e.computeNode(u, sc); err != nil {
					nodeErr = err
					return
				}
			}
		})
		if nodeErr != nil {
			t.Fatal(nodeErr)
		}
		if allocs != 0 {
			t.Errorf("instrumented steady-state recompute of %d nodes allocated %.1f objects/run, want 0",
				len(nodes), allocs)
		}
	})
}

// loadEngineFuzzCorpus decodes the curated seed files under
// testdata/fuzz/FuzzEngineVsSequential into raw payloads.
func loadEngineFuzzCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzEngineVsSequential")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus %s: %v", dir, err)
	}
	out := make(map[string][]byte, len(entries))
	for _, ent := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "[]byte(") {
				continue
			}
			quoted := strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")")
			payload, err := strconv.Unquote(quoted)
			if err != nil {
				t.Fatalf("%s: unquoting corpus payload: %v", ent.Name(), err)
			}
			out[ent.Name()] = []byte(payload)
		}
	}
	if len(out) == 0 {
		t.Fatalf("no corpus payloads under %s", dir)
	}
	return out
}

// TestEngineDifferentialFuzzSeeds sweeps the curated degenerate topologies
// (boundary rings, exact-radius links, co-located clusters) through the
// full workers matrix against the sequential pipeline — the engine
// counterpart of the skyline merge-equivalence suite.
func TestEngineDifferentialFuzzSeeds(t *testing.T) {
	for name, data := range loadEngineFuzzCorpus(t) {
		nodes := nodesFromBytes(data)
		fwd, hubIn, g := sequentialForwarding(t, nodes)
		for _, cfg := range engineVariants() {
			res, err := New(cfg).Compute(nodes)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, cfg, err)
			}
			label := fmt.Sprintf("%s workers=%d", name, cfg.Workers)
			assertIdentical(t, label, res, fwd, hubIn, g)
		}
	}
}

// updatePassHarness drives runUpdatePass the way Update does — wiggle a
// fixed mover set by a tiny repairable slide, mark the dirty
// neighborhoods, run the batched pass, reset the per-pass tables —
// without publishing a View, so the tests below pin the cell-batching and
// chunked-claiming machinery alone.
type updatePassHarness struct {
	e         *Engine
	movers    []int
	dirty     []bool
	movedMark []bool
	list      []int
}

func newUpdatePassHarness(t *testing.T, workers, n, k int) *updatePassHarness {
	t.Helper()
	nodes, _, err := benchDeployment(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Workers: workers})
	if _, err := e.Compute(nodes); err != nil {
		t.Fatal(err)
	}
	h := &updatePassHarness{
		e:         e,
		dirty:     make([]bool, len(nodes)),
		movedMark: make([]bool, len(nodes)),
	}
	for u := range nodes {
		if len(e.out.nbrs(u)) > 0 {
			h.movers = append(h.movers, u)
			if len(h.movers) == k {
				break
			}
		}
	}
	if len(h.movers) < k {
		t.Fatalf("deployment too sparse: %d connected nodes, want %d movers", len(h.movers), k)
	}
	if cap(e.updCand) < len(nodes) {
		e.updCand = make([][]int, len(nodes))
	}
	return h
}

// pass runs one batched update pass over the movers' dirty neighborhoods.
func (h *updatePassHarness) pass() error {
	e := h.e
	clear(h.dirty)
	cand := e.updCand[:e.out.n]
	for _, m := range h.movers {
		e.out.own(m)
		e.out.node(m).Pos.X += 1e-9
		e.grid.Move(m, e.out.node(m).Pos)
		h.dirty[m] = true
		h.movedMark[m] = true
		for _, v := range e.out.nbrs(m) {
			h.dirty[v] = true
			cand[v] = append(cand[v], m)
		}
	}
	h.list = h.list[:0]
	for u, d := range h.dirty {
		if d {
			h.list = append(h.list, u)
		}
	}
	_, err := e.runUpdatePass(h.list, h.movedMark)
	for _, m := range h.movers {
		h.movedMark[m] = false
	}
	for _, u := range h.list {
		cand[u] = cand[u][:0]
	}
	return err
}

// A steady-state batched update pass — group the dirty list by owning
// cell, merge-sort the batches, fan them over the pool, repair or
// recompute each node — must not allocate on one worker: every buffer
// (updEnts, updEntsTmp, updSpans, the pass closure, the claim queues, the
// worker scratches) is reused across passes.
func TestUpdatePassSteadyStateAllocs(t *testing.T) {
	h := newUpdatePassHarness(t, 1, 400, 16)
	for i := 0; i < 5; i++ {
		if err := h.pass(); err != nil {
			t.Fatal(err)
		}
	}
	if h.e.repaired.Load() == 0 {
		t.Fatal("no repairs recorded; the harness is not exercising the repair path")
	}
	var passErr error
	allocs := testing.AllocsPerRun(10, func() {
		if err := h.pass(); err != nil {
			passErr = err
		}
	})
	if passErr != nil {
		t.Fatal(passErr)
	}
	if allocs != 0 {
		t.Errorf("steady-state update pass allocated %.1f objects/run, want 0", allocs)
	}
}

// Multi-worker passes pay a fixed per-pass overhead (the worker goroutine
// spawns) but nothing per mover: growing the mover set 8× must not grow
// the allocation count. An accidental per-node or per-batch allocation in
// the batching path shows up here as allocs scaling with the mover count
// (one object per extra mover would add ≥ 56 allocations per run).
func TestUpdatePassAllocsIndependentOfMovers(t *testing.T) {
	measure := func(k int) float64 {
		h := newUpdatePassHarness(t, 4, 400, k)
		for i := 0; i < 5; i++ {
			if err := h.pass(); err != nil {
				t.Fatal(err)
			}
		}
		var passErr error
		allocs := testing.AllocsPerRun(10, func() {
			if err := h.pass(); err != nil {
				passErr = err
			}
		})
		if passErr != nil {
			t.Fatal(passErr)
		}
		return allocs
	}
	small, large := measure(8), measure(64)
	if large > small+16 {
		t.Errorf("allocs grew with mover count: 8 movers → %.1f, 64 movers → %.1f", small, large)
	}
	if small > 32 {
		t.Errorf("multi-worker pass allocates %.1f objects/run; expected a small fixed overhead", small)
	}
}
