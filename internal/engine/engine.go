// Package engine computes MLDCS forwarding sets for an entire network in
// one batched pass. The paper solves the problem one hub at a time
// (Theorem 3: the MLDCS is the skyline set, O(n log n) per node); this
// package is the whole-network counterpart that a production deployment
// needs: neighbor discovery through a shared spatial grid, a worker pool
// sharded over grid cells with per-worker scratch buffers, and an
// incremental path (Apply) that only redoes the neighborhoods a batch of
// moves, joins and leaves actually dirtied, patching most of them by
// kinetic repair (kinetic.go) instead of re-solving them.
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
	"fmt"
	"math"
	"sort"
	"sync"
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
	// DisableRepair turns off the kinetic repair fast path: every dirty
	// node in Update recomputes its skyline from scratch, as the engine
	// did before repair existed. For benchmarking (the BENCH_engine.json
	// update section measures repair against exactly this baseline) and
	// for bisecting a suspected repair bug in production.
	DisableRepair bool

	// Deprecated: the engine has no skyline cache any more; Cache is
	// ignored. It remains only so existing callers still compile.
	Cache bool
}

// Delta is one entry of an Apply call: slot Slot's state after the pass.
// A join or a move gives the slot the disk (Pos, Radius), Radius > 0, under
// the ordering key Key; a leave (Leave set, the other fields ignored)
// makes the slot absent. Keys order exact-duplicate neighbor disks in the
// skyline tie-break (the lower key represents), so present slots should
// carry distinct keys.
type Delta struct {
	Slot   int
	Key    int64
	Pos    geom.Point
	Radius float64
	Leave  bool
}

// Stats summarizes one Compute, Update or Apply pass.
type Stats struct {
	Nodes   int // present nodes in the network
	Edges   int // directed neighbor entries (sum of out-degrees)
	Cells   int // occupied grid cells (the shard count)
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
	// Kinetic accounting, Update-only (zero on a full Compute). Every
	// dirty node is either Repaired (its cached skyline was patched in
	// place by arc surgery) or Recomputed (full skyline recompute: the
	// node itself moved, its kinetic state was invalid, the neighborhood
	// diff was too large, or a repair was abandoned). RepairFallbacks
	// counts the abandoned repairs — an envelope tie or a tripped
	// invariant mid-surgery — which recompute and are also in Recomputed.
	// Distinct from Fallbacks: a repair fallback falls back to the normal
	// full compute, not to the degenerate full-local-set answer.
	Repaired        int
	Recomputed      int
	RepairFallbacks int
	// Per-worker load accounting for the pass's parallel section (see
	// pool.go): the heaviest and mean per-worker share of work items (cell
	// batches) and nodes, the number of chunks obtained by work-stealing,
	// and the imbalance ratio WorkerMaxNodes / WorkerMeanNodes (1.0 =
	// perfectly balanced, higher = skew; 0 when the pass ran no work).
	// Exported as the engine_worker_imbalance gauge and recorded in the
	// benchmark reports to diagnose contended (hotspot) workloads.
	WorkerMaxCells  int
	WorkerMeanCells float64
	WorkerMaxNodes  int
	WorkerMeanNodes float64
	WorkerImbalance float64
	Steals          int

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
	// kin holds each node's kinetic state — the hub-frame disk list and
	// skyline the last full compute produced — which Update's repair path
	// patches in place instead of recomputing. Entry u is only ever
	// touched by the worker that owns node u in the current pass.
	kin []kinState
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
	// updCand[v] lists the moved nodes that may have changed v's link set
	// this pass (possibly with duplicates): filled alongside the dirty
	// marking, consumed by updateNode's repair gather — which therefore
	// never needs a grid query — and reset entry-wise after the pass.
	updCand [][]int
	// Parallel-driver state (pool.go): persistent per-worker scratches,
	// the reusable claim queues, the last pass's per-worker load books,
	// Compute's flattened work items, and Update's cell-batch buffers.
	scratches  []*scratch
	queues     []taskQueue
	lastLoads  []workerLoad
	items      []cellSpan
	updEnts    []updEnt
	updEntsTmp []updEnt
	updSpans   []updSpan
	// The update pass closure and its error collector persist on the
	// engine (runUpdatePass): a per-call closure would escape through the
	// worker goroutines and cost a heap allocation every tick.
	updPassFn   func(i int, sc *scratch)
	updPassMark []bool
	updPassErr  runErr
}

// kinState is one node's cached kinetic state: the neighbor IDs parallel
// to disks[1:] (disks[0] is the hub's own disk), and the skyline over
// disks. The ID order starts canonical (the compute's tuple order) and is
// scrambled by swap-compaction as neighbors depart; only the parallel
// correspondence matters. valid is false whenever the cached pair cannot
// be trusted: before the first compute, after a degeneracy fallback
// (which keeps no skyline), or mid-abandoned repair.
type kinState struct {
	valid bool
	ids   []int
	disks []geom.Disk
	sl    skyline.Skyline
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
// grid, then solve every node's MLDCS, sharding the grid's cells over the
// worker pool. Node IDs must equal their slice positions and radii must be
// positive (as in network.Build); node i takes slot i under key i. The
// nodes slice is copied. It returns the flat rendering of the View the
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
	v, err := e.bulk()
	if err != nil {
		return nil, err
	}
	return v.Result(), nil
}

// bulk is the full pass over the store's present slots, which a fresh
// reset and writes have filled: index them in a new grid whose cell is the
// largest radius, then solve every node, sharding the grid's cells over
// the worker pool.
func (e *Engine) bulk() (*View, error) {
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
	// across passes so a steady Compute/Update cadence stays allocation-free.
	if cap(e.kin) >= n {
		e.kin = e.kin[:n]
		for i := range e.kin {
			e.kin[i].valid = false
		}
	} else {
		e.kin = make([]kinState, n)
	}

	if e.live == 0 {
		return e.publish(), nil
	}
	e.grid = spatial.NewGrid(nil, maxR)
	for u := 0; u < n; u++ {
		if e.out.present(u) {
			e.grid.Insert(u, e.out.node(u).Pos)
		}
	}
	cells := e.grid.Cells()
	e.stats.Cells = len(cells)

	var passSpan obs.Span
	var spanCell *obs.SpanKind
	if m != nil {
		passSpan = m.spanCompute.Begin()
		spanCell = m.spanCell
	}
	e.buildComputeItems(cells)
	var firstErr runErr
	workers := e.forEachTask(len(e.items), func(i int, sc *scratch) {
		it := e.items[i]
		batch := cells[it.cell][it.lo:it.hi]
		batchSpan := spanCell.Begin()
		for _, u := range batch {
			if err := e.computeNode(u, sc); err != nil {
				firstErr.set(err)
				break
			}
		}
		sc.load.nodes += len(batch)
		if batchSpan.Sampled() {
			batchSpan.End(map[string]any{"cell": int(it.cell), "nodes": len(batch)})
		}
	})
	if err := firstErr.get(); err != nil {
		return nil, err
	}
	e.stats.Workers = workers
	e.stats.recordLoads(e.lastLoads)
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
	return v, nil
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

// Result returns the flat rendering of the last published View.
func (e *Engine) Result() *Result { return e.view.Result() }

// scratch holds one worker's reusable buffers, including the skyline
// package's working memory. All slices are grown once and then recycled,
// and per-node outputs are compare-and-kept against the previous pass, so
// a steady-state recompute (same geometry, warm buffers) performs zero
// heap allocations per node — the allocation regression tests pin this.
type scratch struct {
	ids      []int           // gathered neighbor IDs
	tuples   []nbTuple       // canonical neighbor ordering
	tupleTmp []nbTuple       // merge buffer for sortTuples
	disks    []geom.Disk     // hub-frame disk set handed to the skyline
	sky      skyline.Scratch // skyline working memory (ComputeInto)
	sl       skyline.Skyline // reusable skyline output
	cover    []int           // reusable skyline set
	fwdBuf   []int           // reusable mapped forwarding IDs
	// load books this worker's share of the current pass (pool.go).
	load workerLoad
	// Kinetic repair buffers (see kinetic.go): neighborhood diff lists,
	// the sorted copy of the cached neighbor IDs the diff searches, and
	// the skyline the repair surgery ping-pongs through.
	lost    []int
	gained  []int
	movedNb []int
	oldIDs  []int
	cands   []int
	ksl     skyline.Skyline
}

// nbTuple is one neighbor disk in the hub-at-origin frame, carrying the
// raw float bits used for canonical ordering and the neighbor's key, which
// orders exact duplicates.
type nbTuple struct {
	xb, yb, rb uint64
	key        int64
	disk       geom.Disk
	id         int
}

// computeNode recomputes node u's neighborhood and forwarding set. It
// mirrors network.Build's bidirectional link predicate exactly (same grid
// query, same tolerance), so Neighbors matches Graph.Neighbors bit for
// bit; the local set is then canonicalized and solved.
//
//mldcs:hotpath
func (e *Engine) computeNode(u int, sc *scratch) error {
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

	// Canonical ordering: neighbors in the hub frame sorted by their raw
	// coordinate bits. The order is independent of slots and of the node's
	// absolute position, so two nodes anywhere in the network with
	// bit-identical relative neighborhoods produce the same disk sequence,
	// and hence the same skyline computation. Exact duplicate disks are
	// ordered by key, so the skyline's canonical tie-break (larger radius,
	// then lower index) picks the lowest-key duplicate: the one the
	// per-node solver picks over nodes numbered in key order, whatever
	// slots they occupy.
	sc.tuples = sc.tuples[:0]
	for _, v := range sc.ids {
		d := e.out.node(v).Disk().Translate(hub.Pos)
		sc.tuples = append(sc.tuples, nbTuple{
			xb:   math.Float64bits(d.C.X),
			yb:   math.Float64bits(d.C.Y),
			rb:   math.Float64bits(d.R),
			key:  e.out.key(v),
			disk: d,
			id:   v,
		})
	}
	sortTuples(sc)

	sc.disks = sc.disks[:0]
	sc.disks = append(sc.disks, geom.Disk{R: hub.Radius})
	for i := range sc.tuples {
		sc.disks = append(sc.disks, sc.tuples[i].disk)
	}
	// The local-disk-set precondition holds by construction — the pass
	// validated the hub radius and the link predicate only admits neighbors
	// that reach back over the hub — so the validation pass is skipped; a
	// degenerate result is still caught by the invariant check below.
	sc.sl = sc.sky.ComputeIntoUnchecked(sc.sl, sc.disks)
	if ierr := checkInvariants(sc.sl, len(sc.disks)); ierr != nil {
		//mldcslint:allow hotpathalloc degeneracy fallback, cold by construction (invariant violations are counted and rare)
		e.fallbackNode(u, ierr)
		if nodeSpan.Sampled() {
			//mldcslint:allow hotpathalloc span finalization runs only for sampled spans, off the steady path
			nodeSpan.End(map[string]any{"node": u, "neighbors": len(sc.ids), "fallback": true})
		}
		return nil
	}
	if !e.cfg.DisableRepair {
		// Seed the kinetic state for Update's repair path: the neighbor IDs
		// in tuple (canonical) order, parallel to disks[1:], plus the
		// freshly verified skyline. append-into keeps the steady path free
		// of allocations once the per-node buffers are warm.
		st := &e.kin[u]
		st.ids = st.ids[:0]
		for i := range sc.tuples {
			st.ids = append(st.ids, sc.tuples[i].id)
		}
		st.disks = append(st.disks[:0], sc.disks...)
		st.sl = append(st.sl[:0], sc.sl...)
		st.valid = true
	}
	// The cover's disk indices map to node IDs through the tuples (index 0
	// is the hub), as updateNode maps them through the kinetic state's ids.
	sc.cover = sc.sl.AppendSet(sc.cover)
	hubIn := false
	sc.fwdBuf = sc.fwdBuf[:0]
	for _, i := range sc.cover {
		if i == 0 {
			hubIn = true
			continue
		}
		sc.fwdBuf = append(sc.fwdBuf, sc.tuples[i-1].id)
	}
	sort.Ints(sc.fwdBuf)
	sc.fwdBuf = mutateForwarding(sc.fwdBuf, u)
	pg.fwd[slot] = keepInts(pg.fwd[slot], sc.fwdBuf)
	pg.hubIn[slot] = hubIn
	if nodeSpan.Sampled() {
		//mldcslint:allow hotpathalloc span finalization runs only for sampled spans, off the steady path
		nodeSpan.End(map[string]any{"node": u, "neighbors": len(sc.ids), "cover": len(sc.fwdBuf)})
	}
	return nil
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

// sortTuples orders the worker's tuple buffer by tupleLess with a
// bottom-up stable merge sort through sc.tupleTmp (stable, so equal keys
// keep the ascending-slot gather order); sort.SliceStable would allocate
// its reflect-based swapper on every call, which is the kind of per-node
// garbage this loop must not produce.
//
//mldcs:hotpath
func sortTuples(sc *scratch) {
	n := len(sc.tuples)
	if n < 2 {
		return
	}
	if cap(sc.tupleTmp) < n {
		//mldcslint:allow hotpathalloc merge-buffer growth, amortized to zero once the scratch is warm
		sc.tupleTmp = make([]nbTuple, n)
	}
	src, dst := sc.tuples[:n], sc.tupleTmp[:n]
	inTuples := true
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := min(lo+width, n)
			hi := min(lo+2*width, n)
			mergeTuples(dst[lo:hi], src[lo:mid], src[mid:hi])
		}
		src, dst = dst, src
		inTuples = !inTuples
	}
	if !inTuples {
		copy(sc.tuples, src)
	}
}

// mergeTuples merges the sorted runs a and b into dst, taking from a on
// ties (stability). len(dst) == len(a)+len(b).
func mergeTuples(dst, a, b []nbTuple) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if tupleLess(&b[j], &a[i]) {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// tupleLess is the canonical neighbor order: ascending raw radius bits,
// then center x bits, then center y bits, then key.
func tupleLess(a, b *nbTuple) bool {
	if a.rb != b.rb {
		return a.rb < b.rb
	}
	if a.xb != b.xb {
		return a.xb < b.xb
	}
	if a.yb != b.yb {
		return a.yb < b.yb
	}
	return a.key < b.key
}

// fallbackNode installs the degeneracy-safe answer for node u after its
// computed skyline failed the runtime invariant check: the full local set
// — every neighbor relays and the hub's own disk stays in the cover —
// which is a correct (if non-minimal) cover of any local disk set. The
// event is counted in Stats.Fallbacks and logged through internal/obs.
func (e *Engine) fallbackNode(u int, cause error) {
	e.kin[u].valid = false
	pg, slot := e.out.at(u)
	pg.fwd[slot] = append([]int(nil), pg.nbrs[slot]...)
	pg.hubIn[slot] = true
	e.fallbacks.Add(1)
	if m := engInstr.Load(); m != nil {
		m.recordFallback(u, len(pg.nbrs[slot]), cause)
	}
}

// runErr collects the first error raised inside the worker pool.
type runErr struct {
	mu  sync.Mutex
	err error
}

func (f *runErr) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *runErr) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// reset clears the collector for reuse across passes.
func (f *runErr) reset() {
	f.mu.Lock()
	f.err = nil
	f.mu.Unlock()
}
