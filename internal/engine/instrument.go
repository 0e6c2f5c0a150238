package engine

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Metric names exported by this package (see docs/OBSERVABILITY.md).
const (
	MetricComputeTotal   = "engine_compute_total"
	MetricComputeSeconds = "engine_compute_seconds"
	MetricUpdateTotal    = "engine_update_total"
	MetricUpdateSeconds  = "engine_update_seconds"
	MetricNodesTotal     = "engine_nodes_total"
	MetricCellsTotal     = "engine_cells_total"
	MetricNodesPerSec    = "engine_nodes_per_second"
	MetricCellsPerSec    = "engine_cells_per_second"
	MetricWorkers        = "engine_workers"
	// Per-pass load balance of the worker pool: the imbalance gauge is
	// max/mean nodes processed per worker (1.0 = perfectly balanced), and
	// the steal counter accumulates chunks claimed from another worker's
	// range by the work-stealing scheduler.
	MetricWorkerImbalance = "engine_worker_imbalance"
	MetricStealTotal      = "engine_steal_total"
	MetricDirtyNodes      = "engine_dirty_nodes"
	MetricDirtyFraction   = "engine_dirty_fraction"
	MetricFallbacks       = "engine_fallback_total"
	// Kinetic repair accounting (Update only): dirty nodes whose skyline
	// was patched in place, dirty nodes fully recomputed, repairs abandoned
	// mid-surgery (tie or invariant trip — a subset of the recomputes), and
	// the per-node latency of successful repairs.
	MetricRepairTotal         = "engine_repair_total"
	MetricRecomputeTotal      = "engine_recompute_total"
	MetricRepairFallbackTotal = "engine_repair_fallback_total"
	MetricRepairSeconds       = "engine_repair_seconds"

	// EventFallback is emitted once per node whose computed skyline failed
	// the runtime invariant check and was replaced by the full local set.
	EventFallback = "engine_fallback"

	// Span kinds emitted by this package (see obs.SpanTracer): one span per
	// whole-network Compute pass, one per incremental Update tick, one per
	// worker cell batch inside a pass, and one per per-node recompute.
	SpanCompute = "engine_compute"
	SpanUpdate  = "engine_update"
	SpanCell    = "engine_cell"
	SpanNode    = "engine_node"
	SpanRepair  = "engine_repair"
)

// engMetrics holds pre-resolved handles so the engine never touches the
// registry's name map on the hot path. Installed atomically by Instrument.
type engMetrics struct {
	computes       *obs.Counter
	computeSeconds *obs.Timer
	updates        *obs.Counter
	updateSeconds  *obs.Timer
	nodes          *obs.Counter
	cells          *obs.Counter
	nodesPerSec    *obs.Gauge
	cellsPerSec    *obs.Gauge
	workers        *obs.Gauge
	// Worker-pool load balance: imbalance is the last pass's max/mean
	// nodes per worker; steals accumulates work-stealing chunk claims.
	workerImbalance *obs.Gauge
	steals          *obs.Counter
	// dirtyNodes is the per-Update dirty-set size distribution;
	// dirtyFraction the last Update's dirty share of the network, the
	// quantity that makes incremental recompute worthwhile.
	dirtyNodes    *obs.Histogram
	dirtyFraction *obs.Gauge
	// fallbacks counts degeneracy fallbacks: nodes whose skyline failed
	// the runtime invariant check and got the full local set instead.
	fallbacks *obs.Counter
	// Kinetic repair accounting (see Stats.Repaired and friends).
	repairs         *obs.Counter
	recomputes      *obs.Counter
	repairFallbacks *obs.Counter
	repairSeconds   *obs.Timer
	sink            *obs.EventSink
	// Span kinds (nil when no sink is attached): pass → cell batch → node,
	// plus update ticks and per-node repairs. Per-kind sampling keeps the
	// trace bounded while the sharded totals keep counting past the budget.
	spanCompute *obs.SpanKind
	spanUpdate  *obs.SpanKind
	spanCell    *obs.SpanKind
	spanNode    *obs.SpanKind
	spanRepair  *obs.SpanKind
}

// engInstr is the installed instrumentation; nil means disabled, and the
// engine pays one atomic load per pass.
var engInstr atomic.Pointer[engMetrics]

// Instrument installs metrics collection (and, optionally, a structured
// event trace for degeneracy fallbacks) for this package. Either argument
// may be nil; passing both nil disables instrumentation entirely.
func Instrument(r *obs.Registry, sink *obs.EventSink) {
	if r == nil && sink == nil {
		engInstr.Store(nil)
		return
	}
	tracer := obs.NewSpanTracer(sink, 0)
	engInstr.Store(&engMetrics{
		computes:        r.Counter(MetricComputeTotal),
		computeSeconds:  r.Timer(MetricComputeSeconds),
		updates:         r.Counter(MetricUpdateTotal),
		updateSeconds:   r.Timer(MetricUpdateSeconds),
		nodes:           r.Counter(MetricNodesTotal),
		cells:           r.Counter(MetricCellsTotal),
		nodesPerSec:     r.Gauge(MetricNodesPerSec),
		cellsPerSec:     r.Gauge(MetricCellsPerSec),
		workers:         r.Gauge(MetricWorkers),
		workerImbalance: r.Gauge(MetricWorkerImbalance),
		steals:          r.Counter(MetricStealTotal),
		dirtyNodes:      r.Histogram(MetricDirtyNodes),
		dirtyFraction:   r.Gauge(MetricDirtyFraction),
		fallbacks:       r.Counter(MetricFallbacks),
		repairs:         r.Counter(MetricRepairTotal),
		recomputes:      r.Counter(MetricRecomputeTotal),
		repairFallbacks: r.Counter(MetricRepairFallbackTotal),
		repairSeconds:   r.Timer(MetricRepairSeconds),
		sink:            sink,
		spanCompute:     tracer.Kind(SpanCompute),
		spanUpdate:      tracer.Kind(SpanUpdate),
		spanCell:        tracer.Kind(SpanCell),
		spanNode:        tracer.Kind(SpanNode),
		spanRepair:      tracer.Kind(SpanRepair),
	})
}

// recordFallback books one degeneracy fallback and emits the trace event.
func (m *engMetrics) recordFallback(node, neighbors int, cause error) {
	m.fallbacks.Inc()
	m.sink.Emit(EventFallback, map[string]any{
		"node":      node,
		"neighbors": neighbors,
		"cause":     cause.Error(),
	})
}

// recordCompute books one finished whole-network pass.
func (m *engMetrics) recordCompute(s Stats, elapsed time.Duration) {
	m.computes.Inc()
	m.computeSeconds.Observe(elapsed)
	m.nodes.Add(int64(s.Nodes))
	m.cells.Add(int64(s.Cells))
	if sec := elapsed.Seconds(); sec > 0 {
		m.nodesPerSec.Set(float64(s.Nodes) / sec)
		m.cellsPerSec.Set(float64(s.Cells) / sec)
	}
	m.workers.Set(float64(s.Workers))
	m.recordBalance(s)
}

// recordUpdate books one incremental pass.
func (m *engMetrics) recordUpdate(s Stats, elapsed time.Duration) {
	m.updates.Inc()
	m.updateSeconds.Observe(elapsed)
	m.dirtyNodes.Observe(float64(s.Dirty))
	if s.Nodes > 0 {
		m.dirtyFraction.Set(float64(s.Dirty) / float64(s.Nodes))
	}
	m.repairs.Add(int64(s.Repaired))
	m.recomputes.Add(int64(s.Recomputed))
	m.repairFallbacks.Add(int64(s.RepairFallbacks))
	m.recordBalance(s)
}

// recordBalance books the pass's worker load-balance summary. The gauge
// only moves on multi-worker passes — an empty or single-worker pass has
// no balance to speak of and would just reset the gauge to 1.
func (m *engMetrics) recordBalance(s Stats) {
	if s.WorkerImbalance > 0 {
		m.workerImbalance.Set(s.WorkerImbalance)
	}
	if s.Steals > 0 {
		m.steals.Add(int64(s.Steals))
	}
}
