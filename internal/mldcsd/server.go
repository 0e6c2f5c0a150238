// Package mldcsd is the long-running MLDCS service: it wraps
// internal/engine in an ingest-queue + epoch-snapshot server so a live
// network can stream mobility deltas in while forwarding-set and skyline
// queries are answered concurrently, and reads never block updates.
//
// Architecture, in one paragraph: POST /v1/deltas decodes and validates a
// batch at the HTTP edge, then admission control either enqueues it on a
// bounded queue (202 + sequence number) or sheds it (429 + Retry-After
// when the queue is full, 503 while draining). A single applier goroutine
// drains the queue, coalescing up to Config.Coalesce queued batches per
// engine pass — membership changes run a full Compute, pure mobility runs
// the incremental Move — and publishes the resulting immutable Snapshot
// through an atomic pointer. Query handlers load that pointer once and
// answer entirely from it, so every response is internally consistent
// (one epoch) and the engine is only ever touched by the applier. The
// /metrics and /healthz surfaces ride the same mux via internal/obs/expo.
//
// The chaos e2e harness (internal/e2e) is the package's correctness
// gate: seeded action streams against a live server must converge to
// byte-identical state with the offline sequential oracle.
package mldcsd

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// Metric names exported by the service (see docs/SERVICE.md).
const (
	MetricIngestBatches   = "mldcsd_ingest_batches_total"
	MetricIngestDeltas    = "mldcsd_ingest_deltas_total"
	MetricIngestRejected  = "mldcsd_ingest_rejected_total"  // 429: queue full
	MetricIngestMalformed = "mldcsd_ingest_malformed_total" // 400/413: decode failures
	MetricIngestDraining  = "mldcsd_ingest_draining_total"  // 503: refused while draining
	MetricDeltasIgnored   = "mldcsd_deltas_ignored_total"   // move/radius/leave on absent nodes
	MetricQueueDepth      = "mldcsd_queue_depth"
	MetricIngestLag       = "mldcsd_ingest_lag_seconds"    // accept → apply start
	MetricDeltaVisible    = "mldcsd_delta_visible_seconds" // accept → epoch publish
	MetricApplySeconds    = "mldcsd_apply_seconds"         // one group: world apply, engine pass, publish
	MetricApplyCoalesced  = "mldcsd_apply_coalesced_batches"
	MetricEpoch           = "mldcsd_epoch"
	MetricEpochAge        = "mldcsd_epoch_age_seconds" // refreshed at scrape time
	MetricNodes           = "mldcsd_nodes"
	MetricQueries         = "mldcsd_queries_total"
	MetricQueryErrors     = "mldcsd_query_errors_total"
	MetricRepaired        = "mldcsd_nodes_repaired_total"   // dirty nodes patched by kinetic repair
	MetricRecomputed      = "mldcsd_nodes_recomputed_total" // dirty nodes recomputed from scratch
)

// Config parameterizes a Server. The zero value is usable: every knob
// has a production default.
type Config struct {
	// QueueDepth bounds the ingest queue; a full queue sheds load with
	// 429 + Retry-After instead of buffering without bound. Default 128.
	QueueDepth int
	// MaxBatchDeltas caps deltas per wire batch. Default 4096.
	MaxBatchDeltas int
	// MaxBodyBytes caps the ingest request body. Default 1 MiB.
	MaxBodyBytes int64
	// Coalesce caps how many queued batches one engine pass folds in.
	// Coalescing keeps ingest lag bounded under bursts: the engine runs
	// once per group, not once per batch. Default 16.
	Coalesce int
	// EngineWorkers is passed to engine.Config.Workers (≤ 0 GOMAXPROCS).
	EngineWorkers int
	// DisableCache turns the engine's skyline cache off (it defaults on:
	// mobility streams replay neighborhoods constantly).
	DisableCache bool
	// Registry receives service metrics; nil disables instrumentation.
	Registry *obs.Registry

	// applyGate, settable only by in-package tests, is called by the
	// applier after dequeuing the first batch of each group and before
	// applying it; admission tests use it to hold the queue at an exact
	// depth.
	applyGate func()
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	if c.MaxBatchDeltas <= 0 {
		c.MaxBatchDeltas = 4096
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Coalesce <= 0 {
		c.Coalesce = 16
	}
	return c
}

// Snapshot is one published epoch: the external-ID mapping and the engine
// View computed from exactly that node set (node disks included). A
// snapshot is immutable; queries read one snapshot and nothing else.
//
//mldcs:immutable
type Snapshot struct {
	// Epoch is the engine pass number (engine.View.Epoch); 0 means "no
	// batch applied yet" and carries an empty world.
	Epoch uint64
	// AppliedSeq is the highest ingest sequence folded into this epoch.
	AppliedSeq uint64
	// IDs maps dense index → external node ID (sorted ascending). Every
	// epoch with the same membership shares one slice.
	IDs []int64
	// Res is the engine output, dense-indexed like IDs; nil only at
	// epoch 0.
	Res *engine.View
	// Created stamps when the snapshot was published.
	Created time.Time
}

// ingestItem is one accepted batch in flight between admission and apply.
type ingestItem struct {
	seq   uint64
	batch Batch
	enq   time.Time
}

// Server is the service core, independent of any listener: Handler()
// serves its HTTP API, and the embedding command (cmd/mldcsd) or test
// binds it via internal/httpserve or httptest.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	eng   *engine.Engine
	world *world
	queue chan ingestItem

	// mu orders admission: sequence numbers are assigned and enqueued
	// under it, so queue order equals seq order and AppliedSeq is
	// monotonic. It also latches draining so no enqueue can race the
	// queue close in Close.
	mu          sync.Mutex
	draining    bool
	closed      bool
	acceptedSeq uint64

	snap        atomic.Pointer[Snapshot]
	applierDone chan struct{}
	fatal       atomic.Pointer[string] // engine failure: served as unhealthy

	m serverMetrics
}

type serverMetrics struct {
	batches   *obs.Counter
	deltas    *obs.Counter
	rejected  *obs.Counter
	malformed *obs.Counter
	draining  *obs.Counter
	ignored   *obs.Counter
	depth     *obs.Gauge
	lag       *obs.Timer
	visible   *obs.Timer
	apply     *obs.Timer
	coalesced *obs.Histogram
	epoch     *obs.Gauge
	epochAge  *obs.Gauge
	nodes     *obs.Gauge
	queries   *obs.Counter
	queryErrs *obs.Counter
	repaired  *obs.Counter
	recomp    *obs.Counter
}

func newServerMetrics(r *obs.Registry) serverMetrics {
	return serverMetrics{
		batches:   r.Counter(MetricIngestBatches),
		deltas:    r.Counter(MetricIngestDeltas),
		rejected:  r.Counter(MetricIngestRejected),
		malformed: r.Counter(MetricIngestMalformed),
		draining:  r.Counter(MetricIngestDraining),
		ignored:   r.Counter(MetricDeltasIgnored),
		depth:     r.Gauge(MetricQueueDepth),
		lag:       r.Timer(MetricIngestLag),
		visible:   r.Timer(MetricDeltaVisible),
		apply:     r.Timer(MetricApplySeconds),
		coalesced: r.Histogram(MetricApplyCoalesced),
		epoch:     r.Gauge(MetricEpoch),
		epochAge:  r.Gauge(MetricEpochAge),
		nodes:     r.Gauge(MetricNodes),
		queries:   r.Counter(MetricQueries),
		queryErrs: r.Counter(MetricQueryErrors),
		repaired:  r.Counter(MetricRepaired),
		recomp:    r.Counter(MetricRecomputed),
	}
}

// New builds a server and starts its applier. Callers must Close it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		eng:         engine.New(engine.Config{Workers: cfg.EngineWorkers, Cache: !cfg.DisableCache}),
		world:       newWorld(),
		queue:       make(chan ingestItem, cfg.QueueDepth),
		applierDone: make(chan struct{}),
		m:           newServerMetrics(cfg.Registry),
	}
	s.snap.Store(&Snapshot{Created: time.Now()})
	s.mux = s.buildMux()
	go s.applier()
	return s
}

// Handler returns the service's full HTTP surface: the /v1 API plus
// /healthz and /metrics.
func (s *Server) Handler() http.Handler { return s.mux }

// Latest returns the currently published snapshot (never nil).
func (s *Server) Latest() *Snapshot { return s.snap.Load() }

// AcceptedSeq returns the highest ingest sequence number admitted so far.
func (s *Server) AcceptedSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acceptedSeq
}

// BeginDrain moves the server into draining: new ingest is refused with
// 503 while already-accepted batches still apply and queries keep being
// served. Part of graceful shutdown; irreversible.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Close drains and stops the applier: ingest is refused, every accepted
// batch is applied, and the final snapshot is published before Close
// returns. The HTTP listener (owned by the caller) should be shut down
// after Close so late queries still see the converged state.
func (s *Server) Close() error {
	s.mu.Lock()
	s.draining = true
	already := s.closed
	s.closed = true
	if !already {
		close(s.queue)
	}
	s.mu.Unlock()
	<-s.applierDone
	if msg := s.fatal.Load(); msg != nil {
		return fmt.Errorf("mldcsd: engine failed: %s", *msg)
	}
	return nil
}

// admit runs admission control for one decoded batch. It returns the
// assigned sequence number, or an HTTP status ≠ 202 when the batch was
// refused (429 queue-full, 503 draining).
func (s *Server) admit(b Batch) (seq uint64, status int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.m.draining.Inc()
		return 0, http.StatusServiceUnavailable
	}
	select {
	case s.queue <- ingestItem{seq: s.acceptedSeq + 1, batch: b, enq: time.Now()}:
		s.acceptedSeq++
		s.m.batches.Inc()
		s.m.deltas.Add(int64(len(b.Deltas)))
		s.m.depth.Set(float64(len(s.queue)))
		return s.acceptedSeq, http.StatusAccepted
	default:
		s.m.rejected.Inc()
		return 0, http.StatusTooManyRequests
	}
}

// applier is the single consumer of the ingest queue. One iteration
// takes a group of queued batches (up to Config.Coalesce), folds them
// into the world, runs one engine pass, and publishes the snapshot.
func (s *Server) applier() {
	defer close(s.applierDone)
	for item := range s.queue {
		if s.cfg.applyGate != nil {
			s.cfg.applyGate()
		}
		group := []ingestItem{item}
	coalesce:
		for len(group) < s.cfg.Coalesce {
			select {
			case next, ok := <-s.queue:
				if !ok {
					// Queue closed mid-group: apply what we have; the
					// range loop exits on the next iteration.
					s.applyGroup(group)
					return
				}
				group = append(group, next)
			default:
				break coalesce
			}
		}
		s.applyGroup(group)
	}
}

// applyGroup folds a coalesced group into the engine and publishes the
// new epoch. An engine error (impossible for validated input — a bug) is
// latched into fatal and flips /healthz; the server keeps serving the
// last good snapshot.
func (s *Server) applyGroup(group []ingestItem) {
	sw := s.m.apply.Start()
	now := time.Now()
	for _, it := range group {
		s.m.lag.Observe(now.Sub(it.enq))
		s.m.ignored.Add(int64(s.world.apply(it.batch)))
	}
	s.m.coalesced.Observe(float64(len(group)))
	s.m.depth.Set(float64(len(s.queue)))

	membershipChanged := s.world.commit()
	moved := s.world.takeMoved()
	prev := s.snap.Load()
	var view *engine.View
	var err error
	// Move is only legal when the previous pass saw the same membership
	// (same dense mapping); an empty world also recomputes, because the
	// engine has no grid to move against after an empty Compute.
	if membershipChanged || prev.Res == nil || len(s.world.ids) == 0 {
		_, err = s.eng.Compute(s.world.nodes)
		view = s.eng.View()
	} else {
		view, err = s.eng.Move(moved)
	}
	if err != nil {
		msg := err.Error()
		s.fatal.Store(&msg)
		sw.Stop()
		return
	}
	// Each batch becomes visible at this epoch's Store; observing just
	// before it means a reader that sees the epoch also sees its samples.
	created := time.Now()
	for _, it := range group {
		s.m.visible.Observe(created.Sub(it.enq))
	}
	s.snap.Store(&Snapshot{
		Epoch:      view.Epoch,
		AppliedSeq: group[len(group)-1].seq,
		IDs:        s.world.ids,
		Res:        view,
		Created:    created,
	})
	s.m.epoch.Set(float64(view.Epoch))
	s.m.nodes.Set(float64(view.Len()))
	s.m.repaired.Add(int64(view.Stats.Repaired))
	s.m.recomp.Add(int64(view.Stats.Recomputed))
	sw.Stop()
}
