package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	mldcs "repro"
	"repro/internal/engine"
	"repro/internal/mldcsd"
	"repro/internal/obs"
)

// Load shape, identical on every workload. At these rates the applier is
// at most 40% busy on every workload at the commit that introduced this
// benchmark, which keeps queue wait near zero and the figures steady.
const (
	ingestPeriod = time.Second / 25  // open-loop ingest: 25 batches/s
	queryPeriod  = time.Second / 400 // open-loop reader: 400 queries/s
	warmup       = 3 * time.Second   // open loop before the window, discarded
	// capOutstanding is the capacity phase's bound on batches accepted but
	// not yet visible: twice the coalesce cap, so the applier always finds
	// a full group queued, and far below the queue depth, so no 429.
	capOutstanding = 32
	// pollPeriod paces every wait on the applier. Shorter sleeps return
	// after about a millisecond anyway on the hosts this was tuned on.
	pollPeriod = time.Millisecond
	// stallLimit bounds every wait on the applier so a wedged server ends
	// the run with an error instead of hanging it.
	stallLimit = 60 * time.Second
)

// newServer builds mldcsd wired the way cmd/mldcsd wires it — queue 128,
// coalesce 16, cache on, the root package's instrumentation in the
// service's registry — with two exceptions. The batch and body caps admit
// the whole initial network as one join batch, so set-up is exactly one
// full Compute. And the engine runs one worker (`mldcsd -workers 1`), not
// GOMAXPROCS: the 2-vCPU hosts this was tuned on deliver about one CPU of
// throughput with real parallelism only in irregular episodes, and two
// workers split churn-5k's passes into 6 ms and 10 ms modes whose mix
// moved its delta_visible_p50 by 30% from run to run. GOMAXPROCS stays at
// its default, so the load loops and the GC still get a P of their own
// during a pass. README.md has the measurements.
func newServer(reg *obs.Registry, st *stream) *mldcsd.Server {
	mldcs.Instrument(reg, nil)
	return mldcsd.New(mldcsd.Config{
		QueueDepth:     128,
		Coalesce:       16,
		MaxBatchDeltas: max(4096, st.initialN),
		MaxBodyBytes:   max(1<<20, int64(len(st.initial))),
		EngineWorkers:  1,
		Registry:       reg,
	})
}

// recorder is a reusable in-memory http.ResponseWriter: requests go
// through Server.Handler().ServeHTTP with no sockets.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{hdr: make(http.Header)} }

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}

func (r *recorder) reset() {
	clear(r.hdr)
	r.status = 0
	r.body.Reset()
}

// post sends one encoded batch and returns the ingest sequence number the
// server assigned, or an error naming the refusal.
func post(h http.Handler, rw *recorder, body []byte) (uint64, error) {
	req, err := http.NewRequest(http.MethodPost, "/v1/deltas", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	rw.reset()
	h.ServeHTTP(rw, req)
	if rw.status != http.StatusAccepted {
		return 0, fmt.Errorf("ingest: status %d: %s", rw.status, bytes.TrimSpace(rw.body.Bytes()))
	}
	var ack mldcsd.IngestResponse
	if err := json.Unmarshal(rw.body.Bytes(), &ack); err != nil {
		return 0, fmt.Errorf("ingest: decode ack: %w", err)
	}
	return ack.Seq, nil
}

// epochRec is one published epoch as a load loop first saw it.
type epochRec struct {
	epoch, seq uint64
	nodes      int
	stats      engine.Stats
}

// observer attributes visibility: a batch becomes visible at the Created
// stamp of the first snapshot whose AppliedSeq covers it. Both load loops
// feed it every snapshot they load; epochs neither loop loaded are counted
// as missed, and their batches are attributed to the next epoch seen,
// which can only overstate delta-to-visible latency.
type observer struct {
	mu        sync.Mutex
	lastEpoch uint64
	lastSeq   uint64
	missed    int
	visible   []time.Time // by ingest sequence number
	epochs    []epochRec
}

func newObserver(maxSeq int) *observer {
	return &observer{visible: make([]time.Time, maxSeq+1), epochs: make([]epochRec, 0, maxSeq)}
}

func (o *observer) observe(sn *mldcsd.Snapshot) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if sn.Epoch <= o.lastEpoch {
		return
	}
	if o.lastEpoch > 0 && sn.Epoch > o.lastEpoch+1 {
		o.missed += int(sn.Epoch - o.lastEpoch - 1)
	}
	for seq := o.lastSeq + 1; seq <= sn.AppliedSeq && seq < uint64(len(o.visible)); seq++ {
		o.visible[seq] = sn.Created
	}
	rec := epochRec{epoch: sn.Epoch, seq: sn.AppliedSeq, nodes: len(sn.IDs)}
	if sn.Res != nil {
		rec.stats = sn.Res.Stats
	}
	o.epochs = append(o.epochs, rec)
	o.lastEpoch = sn.Epoch
	o.lastSeq = max(o.lastSeq, sn.AppliedSeq)
}

// visibleAt returns when seq became visible, or the zero time.
func (o *observer) visibleAt(seq uint64) time.Time {
	o.mu.Lock()
	defer o.mu.Unlock()
	if seq >= uint64(len(o.visible)) {
		return time.Time{}
	}
	return o.visible[seq]
}

// batchRec and queryRec are the raw open-loop samples: when each
// operation was due, sent and returned.
type batchRec struct {
	due, send, ret time.Time
	seq            uint64
	err            error
}

type queryRec struct {
	due, send, ret time.Time
	node           int64
	skyline        bool
	epoch          uint64
	err            error
}

// harness is one run's server plus everything the load loops record.
type harness struct {
	s   *mldcsd.Server
	h   http.Handler
	reg *obs.Registry
	st  *stream
	obs *observer

	batches []batchRec // open-loop batches, warm-up included
	queries []queryRec // open-loop queries, warm-up included
}

// setup builds a fresh server and applies the initial join batch; the
// duration runs from mldcsd.New to the Created stamp of the first
// snapshot covering that batch.
func setup(st *stream) (*mldcsd.Server, *obs.Registry, time.Duration, error) {
	reg := obs.NewRegistry()
	start := time.Now()
	s := newServer(reg, st)
	seq, err := post(s.Handler(), newRecorder(), st.initial)
	if err != nil {
		s.Close()
		return nil, nil, 0, fmt.Errorf("setup: %w", err)
	}
	for deadline := start.Add(stallLimit); ; {
		if sn := s.Latest(); sn.AppliedSeq >= seq {
			return s, reg, sn.Created.Sub(start), nil
		}
		if time.Now().After(deadline) {
			s.Close()
			return nil, nil, 0, fmt.Errorf("setup: initial batch not visible after %v", stallLimit)
		}
		time.Sleep(pollPeriod)
	}
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// ingestLoop sends batches[0:n] open loop, one every ingestPeriod from t0.
func (h *harness) ingestLoop(t0 time.Time, n int) {
	rw := newRecorder()
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(i) * ingestPeriod)
		sleepUntil(due)
		send := time.Now()
		seq, err := post(h.h, rw, h.st.batches[i])
		ret := time.Now()
		h.obs.observe(h.s.Latest())
		if want := uint64(i) + 2; err == nil && seq != want {
			err = fmt.Errorf("batch %d acknowledged as seq %d, want %d", i, seq, want)
		}
		h.batches[i] = batchRec{due: due, send: send, ret: ret, seq: seq, err: err}
	}
}

// readLoop sends queries[0:n] open loop at their due times from t0,
// alternating /v1/forwarding and /v1/skyline, and checks every response.
func (h *harness) readLoop(t0 time.Time, n int) {
	rw := newRecorder()
	var lastEpoch uint64
	var fwd mldcsd.QueryResponse
	var sky mldcsd.SkylineResponse
	for j := 0; j < n; j++ {
		due := t0.Add(h.st.queryDue[j])
		node := h.st.queries[j]
		path := "/v1/forwarding?node="
		if j%2 == 1 {
			path = "/v1/skyline?node="
		}
		req, err := http.NewRequest(http.MethodGet, path+strconv.FormatInt(node, 10), nil)
		if err != nil {
			h.queries[j] = queryRec{node: node, err: err}
			continue
		}
		sleepUntil(due)
		rw.reset()
		send := time.Now()
		h.h.ServeHTTP(rw, req)
		ret := time.Now()
		h.obs.observe(h.s.Latest())
		rec := queryRec{due: due, send: send, ret: ret, node: node, skyline: j%2 == 1}
		if rec.skyline {
			rec.epoch, rec.err = checkSkyline(rw, node, &sky)
		} else {
			rec.epoch, rec.err = checkForwarding(rw, node, &fwd)
		}
		if rec.err == nil && rec.epoch < lastEpoch {
			rec.err = fmt.Errorf("node %d: epoch went back from %d to %d", node, lastEpoch, rec.epoch)
		}
		lastEpoch = max(lastEpoch, rec.epoch)
		h.queries[j] = rec
	}
}

// waitVisible polls until seq is applied, feeding the observer.
func (h *harness) waitVisible(seq uint64) error {
	deadline := time.Now().Add(stallLimit)
	for {
		sn := h.s.Latest()
		h.obs.observe(sn)
		if sn.AppliedSeq >= seq {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("seq %d not visible after %v (applied %d)", seq, stallLimit, sn.AppliedSeq)
		}
		time.Sleep(pollPeriod)
	}
}

// closedLoop posts n batches, never letting more than limit be accepted
// but not yet applied, and returns once every one has been applied.
// lastSeq is the sequence number accepted before the loop starts; post
// sends batch i and returns its sequence number, applied reports the
// highest applied sequence number, and idle waits for the applier.
func closedLoop(n, limit int, lastSeq uint64, post func(i int) (uint64, error), applied func() uint64, idle func() error) error {
	next := 0
	for {
		a := applied()
		for next < n && lastSeq-min(a, lastSeq) < uint64(limit) {
			seq, err := post(next)
			if err != nil {
				return err
			}
			lastSeq = seq
			next++
		}
		if next == n && a >= lastSeq {
			return nil
		}
		if err := idle(); err != nil {
			return err
		}
	}
}

// capacity pushes batches[first:first+n] through the closed loop and
// returns the deltas applied per second, from the first send to the
// Created stamp of the snapshot that covers the last batch, plus the mean
// number of batches folded into one engine pass.
func (h *harness) capacity(first, n int) (dps, batchesPerPass float64, err error) {
	rw := newRecorder()
	sn0 := h.s.Latest()
	deadline := time.Now().Add(stallLimit)
	start := time.Now()
	var last *mldcsd.Snapshot
	deltas := 0
	err = closedLoop(n, capOutstanding, sn0.AppliedSeq,
		func(i int) (uint64, error) {
			deltas += h.st.deltas[first+i]
			return post(h.h, rw, h.st.batches[first+i])
		},
		func() uint64 {
			last = h.s.Latest()
			return last.AppliedSeq
		},
		func() error {
			if time.Now().After(deadline) {
				return fmt.Errorf("capacity phase stalled for %v", stallLimit)
			}
			time.Sleep(pollPeriod)
			return nil
		})
	if err != nil {
		return 0, 0, err
	}
	// The first snapshot covering the last batch is the one whose Created
	// ends the phase; the loop may have loaded it a poll late, but Created
	// was stamped at publish.
	elapsed := last.Created.Sub(start).Seconds()
	return float64(deltas) / elapsed, float64(last.AppliedSeq-sn0.AppliedSeq) / float64(last.Epoch-sn0.Epoch), nil
}

// state fetches GET /v1/state, the served canonical world.
func (h *harness) state() (mldcsd.StateDoc, error) {
	var doc mldcsd.StateDoc
	req, err := http.NewRequest(http.MethodGet, "/v1/state", nil)
	if err != nil {
		return doc, err
	}
	rw := newRecorder()
	h.h.ServeHTTP(rw, req)
	if rw.status != http.StatusOK {
		return doc, fmt.Errorf("state: status %d", rw.status)
	}
	if err := json.Unmarshal(rw.body.Bytes(), &doc); err != nil {
		return doc, fmt.Errorf("state: decode: %w", err)
	}
	return doc, nil
}
