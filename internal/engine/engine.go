// Package engine computes MLDCS forwarding sets for an entire network in
// one batched pass. The paper solves the problem one hub at a time
// (Theorem 3: the MLDCS is the skyline set, O(n log n) per node); this
// package is the whole-network counterpart that a production deployment
// needs: neighbor discovery through a shared spatial grid, a worker pool
// that takes fixed runs of a pass's node list from one shared cursor, each
// worker with its own scratch buffers, and an incremental path (Apply)
// that only redoes the neighborhoods a batch of moves, joins and leaves
// actually dirtied, patching most of them by kinetic repair (kinetic.go)
// instead of re-solving them.
// Every pass publishes an immutable copy-on-write View (view.go) whose cost
// is proportional to the nodes the pass touched, not to the network.
//
// The engine is observationally equivalent to the sequential per-node
// loop (network.Build + Graph.LocalSet + mldcs.Solve for every node): the
// differential test harness in this package asserts element-identical
// forwarding sets across worker counts, against both the per-node solver
// and the naive skyline oracle.
package engine

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/skyline"
	"repro/internal/spatial"
)

// Config parameterizes an Engine.
type Config struct {
	// Workers is the number of concurrent shard workers; ≤ 0 selects
	// GOMAXPROCS.
	Workers int

	// Deprecated: the engine has no skyline cache any more; Cache is
	// ignored. It remains only so existing callers still compile.
	Cache bool

	// disableRepair, settable only by in-package tests, turns off the
	// kinetic repair fast path: every dirty node of an Apply pass
	// recomputes its skyline from scratch, as the engine did before
	// repair existed. BenchmarkApply's repair=off cells and the
	// BENCH_engine.json update-recompute row measure repair against
	// exactly this baseline.
	disableRepair bool
}

// Delta is one entry of an Apply call: slot Slot's state after the pass.
// A join or a move gives the slot the disk (Pos, Radius), Radius > 0, under
// the ordering key Key; a leave (Leave set, the other fields ignored)
// makes the slot absent. Keys order every local set, which settles the
// skyline's tie-break between neighbor disks within geom.RhoEps of each
// other (the lower key represents), so present slots should carry
// distinct keys. Slots decide only where a node's state lives, never an
// answer, but nearby slots for nearby nodes pay off: a pass touches each
// dirty node's neighbors, and when their slots are close their pages,
// grid entries and kinetic state share cache lines (mldcsd numbers a
// group's joiners along spatial.HilbertOrder for this).
type Delta struct {
	Slot   int
	Key    int64
	Pos    geom.Point
	Radius float64
	Leave  bool
}

// Stats summarizes one pass: a bulk Compute or an incremental Apply
// (Update runs an Apply pass).
type Stats struct {
	Nodes   int // present nodes in the network
	Edges   int // directed neighbor entries (sum of out-degrees)
	Cells   int // occupied grid cells
	Workers int // workers actually used
	// Incremental accounting: slots whose state changed (moves, joins,
	// leaves, key changes), and neighborhoods recomputed (present changed
	// nodes plus their old and new neighbors). A full Compute reports
	// Dirty == Nodes.
	Moved int
	Dirty int
	// Fallbacks counts the nodes in this pass whose computed skyline
	// failed the runtime invariant check (skyline.CheckInvariants) and
	// were given the always-correct full local set instead — a degenerate
	// input degrades to a bigger forwarding set, never a wrong one.
	Fallbacks int
	// Kinetic accounting of an Apply pass (zero on a full Compute). Every dirty node is either Repaired (its kinetic
	// state's skyline was patched in place by arc surgery) or Recomputed
	// (full skyline recompute: the node itself moved, its kinetic state
	// was invalid, the neighborhood diff was too large, or a repair was
	// abandoned). RepairFallbacks counts the abandoned repairs — an
	// envelope tie or a tripped invariant mid-surgery — which recompute
	// and are also in Recomputed. Distinct from Fallbacks: a repair
	// fallback falls back to the normal full compute, not to the
	// degenerate full-local-set answer.
	Repaired        int
	Recomputed      int
	RepairFallbacks int
	// Per-worker load accounting for the pass's parallel section (see
	// pool.go): the heaviest and mean per-worker share of nodes, and the
	// imbalance ratio WorkerMaxNodes / WorkerMeanNodes (1.0 = perfectly
	// balanced, higher = skew; 0 when the pass ran no work). Exported as
	// the engine_worker_imbalance gauge and recorded in the benchmark
	// reports to diagnose contended (hotspot) workloads.
	WorkerMaxNodes  int
	WorkerMeanNodes float64
	WorkerImbalance float64

	// Deprecated: the engine has no work stealing any more; Steals always
	// reads zero. It remains only so existing readers still compile.
	Steals int

	// Deprecated: the engine has no skyline cache any more; CacheHits
	// always reads zero. It remains only so existing readers still compile.
	CacheHits int64
	// Deprecated: always zero, as CacheHits.
	CacheMisses int64
}

// Result is a flat rendering of a View (View.Result): fresh top-level
// slices whose per-node sub-slices are shared with the engine (and with
// later Views and Results for nodes that did not change) and must not be
// modified. Later passes replace per-node sub-slices, never write through
// them, so a Result stays internally consistent forever and may be read
// concurrently while the engine keeps computing.
//
//mldcs:immutable
type Result struct {
	// Epoch numbers the pass that produced this snapshot: 1 for the first
	// successful pass, incremented by every later Compute, Update or
	// Apply. Two snapshots with the same Epoch are identical; a reader
	// holding a sequence of snapshots can assert monotonicity.
	Epoch uint64
	// Forwarding[u] holds the sorted IDs of u's forwarding set: the
	// neighbors whose disks contribute arcs to u's skyline (the paper's
	// relay set, mldcs.Result.NeighborCover mapped to node IDs).
	Forwarding [][]int
	// HubInCover[u] reports whether u's own disk is part of its minimum
	// local disk cover set (mldcs.Result.ContainsHub).
	HubInCover []bool
	// Neighbors[u] holds u's sorted bidirectional 1-hop neighbor IDs,
	// exactly as network.Build would report them.
	Neighbors [][]int
	// Stats describes the pass that produced this snapshot.
	Stats Stats
}

// Engine computes and maintains forwarding sets for a whole network. An
// Engine is not safe for concurrent use; it parallelizes internally.
type Engine struct {
	cfg  Config
	grid *spatial.Grid
	// out holds every node's disk and outputs (view.go); view is the last
	// View published from it.
	out   pageStore
	view  *View
	stats Stats
	// live counts the present slots.
	live int
	// epoch counts successful passes; publish stamps it into View.Epoch.
	epoch uint64
	// fallbacks counts degeneracy fallbacks within the current pass;
	// atomic because computeNode runs on the worker pool.
	fallbacks atomic.Int64
	// Kinetic per-pass counters, same worker-pool atomicity story.
	repaired   atomic.Int64
	recomputed atomic.Int64
	repairFB   atomic.Int64
	// kin holds each node's kinetic state: the skyline the last pass built
	// for it, which Apply's repair path patches instead of recomputing.
	// Arc disk 0 is the hub and disk i+1 is entry i of the node's published
	// neighbor list (pageStore.nbrs, slot-sorted). The disks themselves are
	// not kept; a repair rebuilds them from the page store (kinetic.go). An
	// empty skyline means no valid state: before the first compute, with
	// repair disabled, after a degeneracy fallback, or after a leave. Each
	// buffer grows to exactly the size it must hold. Entry u is only ever
	// touched by the worker that owns node u in the current pass.
	kin []skyline.Skyline
	// Apply's bookkeeping, reused across calls so a steady mobility loop
	// does not re-allocate it every step: the changed slots with their
	// pre-pass states, the dirty marks and list (marks reset entry-wise),
	// the changed marks, and Update's diff buffer.
	updMoved     []int
	updPrev      []Delta
	updDirty     []bool
	updList      []int
	updMovedMark []bool
	updIn        []Delta
	// updCand is the pass's flat candidate list: one entry candidate(v, j)
	// per dirty node v and changed slot updPrev[j].Slot that may have
	// changed v's link set, possibly twice. Filled alongside the dirty
	// marking and sorted, so each node's entries form one run; consumed by
	// updateNode's repair gather, which therefore never needs a grid query
	// and finds a changed neighbor's pre-pass state at updPrev[j].
	updCand []uint64
	// Parallel-driver state (pool.go): persistent per-worker scratches and
	// the shared run cursor.
	scratches []*scratch
	next      atomic.Int64
	// The pass body persists on the engine (runPass): a per-call method
	// value would escape through the worker goroutines and cost a heap
	// allocation every pass. passList and passMark are its arguments for
	// the pass in flight.
	passFn   func(i int, sc *scratch)
	passList []int
	passMark []bool
}

// checkInvariants is the runtime envelope check computeNode applies to
// every freshly computed skyline. A package variable so the fallback path
// can be exercised deterministically from tests; production code never
// reassigns it.
var checkInvariants = func(sl skyline.Skyline, n int) error {
	return sl.CheckInvariants(n)
}

// New returns an engine with the given configuration.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg, view: &View{}}
}

// Compute runs the full whole-network pass: index the nodes in a spatial
// grid, then solve every node's MLDCS on the worker pool. Node IDs must
// equal their slice positions and radii must be positive (as in
// network.Build); node i takes slot i under key i. The nodes slice is
// copied. It returns the flat rendering of the View the
// pass published (see View).
func (e *Engine) Compute(nodes []network.Node) (*Result, error) {
	for i, n := range nodes {
		if n.ID != i {
			return nil, fmt.Errorf("engine: node at position %d has ID %d; IDs must be dense", i, n.ID)
		}
		if !(n.Radius > 0) {
			return nil, fmt.Errorf("engine: node %d has non-positive radius %g", i, n.Radius)
		}
	}
	e.out.reset(len(nodes))
	for i, n := range nodes {
		e.out.write(Delta{Slot: i, Key: int64(i), Pos: n.Pos, Radius: n.Radius})
	}
	return e.bulk().Result(), nil
}

// bulk is the full pass over the store's present slots, which a fresh
// reset and writes have filled: index them in a new grid whose cell is the
// largest radius, then solve every node, listed cell by cell so that each
// run of the list reads a few neighboring cells.
func (e *Engine) bulk() *View {
	m := engInstr.Load()
	start := time.Now()

	n := e.out.n
	maxR := 0.0
	e.live = 0
	for u := 0; u < n; u++ {
		if e.out.present(u) {
			e.live++
			maxR = max(maxR, e.out.node(u).Radius)
		}
	}
	e.grid = nil
	e.stats = Stats{Nodes: e.live}
	e.fallbacks.Store(0)
	// Invalidate (but keep) the kinetic state: per-node buffers persist
	// across passes so a steady Compute/Apply cadence stays allocation-free.
	if cap(e.kin) >= n {
		e.kin = e.kin[:n]
		for i := range e.kin {
			e.kin[i] = e.kin[i][:0]
		}
	} else {
		e.kin = make([]skyline.Skyline, n)
	}

	if e.live == 0 {
		return e.publish()
	}
	e.grid = spatial.NewGrid(nil, maxR)
	for u := 0; u < n; u++ {
		if e.out.present(u) {
			e.grid.Insert(u, e.out.node(u).Pos)
		}
	}
	list := make([]int, 0, e.live)
	for _, cell := range e.grid.Cells() {
		list = append(list, cell...)
	}
	e.stats.Cells = e.grid.NumCells()

	var passSpan obs.Span
	if m != nil {
		passSpan = m.spanCompute.Begin()
	}
	// Every kinetic state is invalid, so the pass recomputes every node.
	workers := e.runPass(list, nil)
	e.stats.Workers = workers
	e.stats.recordLoads(e.scratches[:workers])
	e.stats.Dirty = e.live
	e.stats.Fallbacks = int(e.fallbacks.Load())
	for u := 0; u < n; u++ {
		e.stats.Edges += len(e.out.nbrs(u))
	}

	v := e.publish()
	if m != nil {
		m.recordCompute(e.stats, time.Since(start))
	}
	if passSpan.Sampled() {
		passSpan.End(map[string]any{
			"nodes":   e.stats.Nodes,
			"cells":   e.stats.Cells,
			"workers": e.stats.Workers,
		})
	}
	return v
}

// runPass brings every node of list up to date — kinetic repair where its
// cached state allows, a full recompute otherwise (updateNode) — fanning
// the list over the worker pool in runs of passChunk entries, in list
// order, and returns the number of workers used. movedMark is Apply's
// per-pass "did this slot change" table; the bulk pass passes nil, having
// invalidated every kinetic state so that updateNode never reads it. Split
// out from Apply so the allocation regression tests can pin the fan-out
// at zero steady-state allocations without publishing a View.
func (e *Engine) runPass(list []int, movedMark []bool) int {
	// Make every page the pass writes private first, sequentially: own
	// rewrites directory entries, which the workers read unsynchronized.
	for _, u := range list {
		e.out.own(u)
	}
	e.passList, e.passMark = list, movedMark
	if e.passFn == nil {
		e.passFn = e.runBatch
	}
	workers := e.forEachBatch((len(list)+passChunk-1)/passChunk, e.passFn)
	e.passList, e.passMark = nil, nil
	return workers
}

// runBatch is the pass body: it brings run i of the pass's list — entries
// [i·passChunk, (i+1)·passChunk) — up to date on worker scratch sc.
func (e *Engine) runBatch(i int, sc *scratch) {
	run := e.passList[i*passChunk : min((i+1)*passChunk, len(e.passList))]
	for _, u := range run {
		e.updateNode(u, sc, e.passMark)
	}
	sc.nodes += len(run)
}

// publish ends a successful pass: it numbers the epoch and freezes the
// store into the View every later accessor returns.
func (e *Engine) publish() *View {
	e.epoch++
	e.view = e.out.publish(e.epoch, e.stats)
	return e.view
}

// View returns the View the last successful pass published (an empty
// View before the first pass).
func (e *Engine) View() *View { return e.view }

// scratch holds one worker's reusable buffers, including the skyline
// package's working memory. All slices are grown once and then recycled,
// and per-node outputs are compare-and-kept against the previous pass, so
// a steady-state recompute (same geometry, warm buffers) performs zero
// heap allocations per node — the allocation regression tests pin this.
type scratch struct {
	ids    []int           // gathered neighbor IDs, ascending
	byKey  []nbTuple       // the neighbors in key order
	sky    skyline.Scratch // skyline working memory (ComputeInto)
	fwdBuf []int           // reusable mapped forwarding IDs
	// nodes books this worker's share of the current pass (pool.go).
	nodes int
	// The local set being solved or repaired: hub-frame disks, disk 0 the
	// hub's own.
	disks []geom.Disk
	// The skyline a compute or repair builds, and the second buffer the
	// repair surgery ping-pongs through.
	sl, slTmp skyline.Skyline
	// Kinetic repair's neighborhood diff lists.
	lost    []int
	gained  []int
	movedNb []int
}

// nbTuple is one neighbor's place in the key order: its key, then its
// slot, and its rank in the slot-sorted neighbor list.
type nbTuple struct {
	key  int64
	id   int
	rank int
}

// computeNode recomputes node u's neighborhood and forwarding set. It
// mirrors network.Build's bidirectional link predicate exactly (same grid
// query, same tolerance), so Neighbors matches Graph.Neighbors bit for
// bit; the local set is then put in key order and solved.
//
//mldcs:hotpath
func (e *Engine) computeNode(u int, sc *scratch) {
	var nodeSpan obs.Span
	if m := engInstr.Load(); m != nil {
		//mldcslint:allow hotpathalloc span begin runs only with instrumentation attached; TestComputeNodeInstrumentedAllocs bounds it
		nodeSpan = m.spanNode.Begin()
	}
	hub := *e.out.node(u)
	sc.ids = sc.ids[:0]
	//mldcslint:allow hotpathalloc closure does not escape VisitWithin, so it stays on the stack; TestComputeNodeSteadyStateAllocs pins the pass at zero
	e.grid.VisitWithin(hub.Pos, hub.Radius, func(v int) {
		if v == u {
			return
		}
		if nv := e.out.node(v); !geom.Reaches(nv.Pos, hub.Pos, nv.Radius) {
			return // v cannot reach back
		}
		sc.ids = append(sc.ids, v)
	})
	sort.Ints(sc.ids)
	pg, slot := e.out.at(u)
	pg.nbrs[slot] = keepInts(pg.nbrs[slot], sc.ids)

	// Key order, slot breaking ties: the order network.Build numbers nodes
	// in when keys are IDs, so the skyline sees the disk sequence the
	// per-node solver sees. By Theorem 3 the cover does not depend on that
	// order except through the skyline's tie-break (larger radius, then
	// lower index) between disks within geom.RhoEps of each other; there
	// the lowest-key disk represents, as it does in the solver.
	sc.byKey = sc.byKey[:0]
	for i, v := range sc.ids {
		sc.byKey = append(sc.byKey, nbTuple{key: e.out.key(v), id: v, rank: i})
	}
	slices.SortFunc(sc.byKey, func(a, b nbTuple) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.id, b.id))
	})

	// Solve the local set in key order in worker scratch. The local-disk-set
	// precondition holds by construction — the pass validated the hub
	// radius and the link predicate only admits neighbors that reach back
	// over the hub — so the validation pass is skipped; a degenerate result
	// is still caught by the invariant check below.
	sc.disks = append(sc.disks[:0], geom.Disk{R: hub.Radius})
	for _, t := range sc.byKey {
		sc.disks = append(sc.disks, e.out.node(t.id).Disk().Translate(hub.Pos))
	}
	sc.sl = sc.sky.ComputeIntoUnchecked(sc.sl, sc.disks)
	if ierr := checkInvariants(sc.sl, len(sc.disks)); ierr != nil {
		//mldcslint:allow hotpathalloc degeneracy fallback, cold by construction (invariant violations are counted and rare)
		e.fallbackNode(u, ierr)
		if nodeSpan.Sampled() {
			//mldcslint:allow hotpathalloc span finalization runs only for sampled spans, off the steady path
			nodeSpan.End(map[string]any{"node": u, "neighbors": len(sc.ids), "fallback": true})
		}
		return
	}
	// Relabel key positions to ranks in the slot-sorted neighbor list, the
	// labels the kinetic state and writeForwarding use.
	for i, a := range sc.sl {
		if a.Disk > 0 {
			sc.sl[i].Disk = sc.byKey[a.Disk-1].rank + 1
		}
	}
	e.keepKin(u, sc.sl)
	e.writeForwarding(u, sc)
	if nodeSpan.Sampled() {
		//mldcslint:allow hotpathalloc span finalization runs only for sampled spans, off the steady path
		nodeSpan.End(map[string]any{"node": u, "neighbors": len(sc.ids), "cover": len(sc.fwdBuf)})
	}
}

// keepKin stores sl as node u's kinetic state (nothing, with repair
// disabled). The node's buffer is reused when it is large enough and
// otherwise replaced by one of exactly len(sl) arcs: append's doubling
// would let every node's capacity creep up to twice its high-water mark
// under mobility.
//
//mldcs:hotpath
func (e *Engine) keepKin(u int, sl skyline.Skyline) {
	if e.cfg.disableRepair {
		return
	}
	st := e.kin[u]
	if cap(st) < len(sl) {
		//mldcslint:allow hotpathalloc exact-size growth: only when the node's skyline outgrows every earlier one
		st = make(skyline.Skyline, len(sl))
	}
	st = st[:len(sl)]
	copy(st, sl)
	e.kin[u] = st
}

// writeForwarding sets node u's forwarding set and hub flag from the
// skyline in sc.sl, whose disk 0 is the hub and disk d ≥ 1 neighbor
// sc.ids[d-1]. A disk may own several arcs, so the mapped IDs are sorted
// once and deduplicated.
//
//mldcs:hotpath
func (e *Engine) writeForwarding(u int, sc *scratch) {
	hubIn := false
	sc.fwdBuf = sc.fwdBuf[:0]
	for _, a := range sc.sl {
		if a.Disk == 0 {
			hubIn = true
			continue
		}
		sc.fwdBuf = append(sc.fwdBuf, sc.ids[a.Disk-1])
	}
	slices.Sort(sc.fwdBuf)
	sc.fwdBuf = slices.Compact(sc.fwdBuf)
	sc.fwdBuf = mutateForwarding(sc.fwdBuf, u)
	pg, slot := e.out.at(u)
	pg.fwd[slot] = keepInts(pg.fwd[slot], sc.fwdBuf)
	pg.hubIn[slot] = hubIn
}

// keepInts returns old unchanged when it already holds exactly the values
// of cur — earlier snapshots share that slice, and reusing it keeps the
// steady-state path allocation-free — and a fresh copy of cur otherwise.
// Engine outputs are never written through, so sharing is safe.
//
//mldcs:hotpath
func keepInts(old, cur []int) []int {
	if len(old) == len(cur) {
		same := true
		for i, v := range cur {
			if old[i] != v {
				same = false
				break
			}
		}
		if same {
			return old
		}
	}
	//mldcslint:allow hotpathalloc cold branch: copies only when the value set changed; steady state returns old
	out := make([]int, len(cur))
	copy(out, cur)
	return out
}

// fallbackNode installs the degeneracy-safe answer for node u after its
// computed skyline failed the runtime invariant check: the full local set
// — every neighbor relays and the hub's own disk stays in the cover —
// which is a correct (if non-minimal) cover of any local disk set. The
// event is counted in Stats.Fallbacks and logged through internal/obs.
func (e *Engine) fallbackNode(u int, cause error) {
	e.kin[u] = e.kin[u][:0]
	pg, slot := e.out.at(u)
	pg.fwd[slot] = append([]int(nil), pg.nbrs[slot]...)
	pg.hubIn[slot] = true
	e.fallbacks.Add(1)
	if m := engInstr.Load(); m != nil {
		m.recordFallback(u, len(pg.nbrs[slot]), cause)
	}
}
