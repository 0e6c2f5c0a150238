package e2e

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpserve"
	"repro/internal/mldcsd"
)

// runStats summarizes one chaos run, for the JSONL log and for test
// assertions that the stream actually exercised every chaos class.
type runStats struct {
	Seed        int64  `json:"seed"`
	Batches     int    `json:"batches"`      // accepted ingest batches (incl. syncs)
	Deltas      int    `json:"deltas"`       // deltas inside them
	Retries429  int    `json:"retries_429"`  // ingest retries after backpressure
	Malformed   int    `json:"malformed"`    // hostile bodies sent (all must 400)
	Disconnects int    `json:"disconnects"`  // mid-body client aborts
	Restarts    int    `json:"restarts"`     // server kills + full re-syncs
	Queries     int64  `json:"queries"`      // concurrent reads during the stream
	QueryErrors int64  `json:"query_errors"` // transport errors tolerated (restart windows)
	FinalNodes  int    `json:"final_nodes"`
	FinalEpoch  uint64 `json:"final_epoch"`
}

// runSeed drives one full chaos run: boot a live mldcsd server on an
// ephemeral port, stream the seed's action sequence at it while query
// workers hammer reads, then drain and compare the converged state
// byte-for-byte against the sequential oracle. A non-nil error means
// either divergence or a violated service contract (wrong status code,
// lost batch, inconsistent read) — every one is bankable.
//
// The log, when non-nil, receives one JSON line per driver action and a
// final verdict line; CI uploads it on failure.
func runSeed(cfg SeedConfig, logw io.Writer) (runStats, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 36
	}
	if cfg.Actions <= 0 {
		cfg.Actions = 160
	}
	h := &harness{
		cfg:   cfg,
		gen:   newGenerator(cfg),
		stats: runStats{Seed: cfg.Seed},
		log:   logw,
		// Fixed ID bound for query workers: the model grows under the
		// driver's feet, so readers probe a static superset (absent IDs
		// just 404) rather than race on the model.
		idBound: int64(cfg.Nodes + cfg.Actions*32 + 8),
	}
	if err := h.start(); err != nil {
		return h.stats, err
	}
	defer h.stopServer()

	// Concurrent readers for the whole run.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			h.queryLoop(worker, stop)
		}(w)
	}
	err := h.drive()
	close(stop)
	wg.Wait()
	if qe := h.queryFailure.Load(); err == nil && qe != nil {
		err = fmt.Errorf("query worker: %s", *qe)
	}
	if err == nil {
		err = h.verify()
	}
	h.logLine(map[string]any{
		"kind": "verdict", "seed": cfg.Seed, "ok": err == nil,
		"err": errString(err), "stats": h.stats,
	})
	return h.stats, err
}

type harness struct {
	cfg     SeedConfig
	gen     *generator
	stats   runStats
	idBound int64
	log     io.Writer
	logMu   sync.Mutex

	mu      sync.Mutex // guards core/httpSrv/baseURL across restarts
	core    *mldcsd.Server
	httpSrv *httpserve.Server
	baseURL string
	// generation increments on every restart; query workers use it to
	// reset their epoch-monotonicity watermark.
	generation atomic.Int64
	// lastSeq is the newest ack the driver received from the current
	// server generation; drain waits for it.
	lastSeq uint64

	queryFailure atomic.Pointer[string]
}

func (h *harness) start() error {
	core := mldcsd.New(mldcsd.Config{
		QueueDepth:    64,
		Coalesce:      8,
		EngineWorkers: 2,
	})
	srv, err := httpserve.Start("127.0.0.1:0", core.Handler())
	if err != nil {
		core.Close()
		return fmt.Errorf("start server: %w", err)
	}
	h.mu.Lock()
	h.core, h.httpSrv, h.baseURL = core, srv, "http://"+srv.Addr()
	h.lastSeq = 0
	h.mu.Unlock()
	return nil
}

func (h *harness) stopServer() {
	h.mu.Lock()
	core, srv := h.core, h.httpSrv
	h.core, h.httpSrv = nil, nil
	h.mu.Unlock()
	if srv != nil {
		srv.Shutdown(2 * time.Second)
	}
	if core != nil {
		core.Close()
	}
}

func (h *harness) base() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.baseURL
}

// drive executes the action stream in order. Ingest ordering matters —
// the model applies batches in emission order, so the driver is the only
// goroutine that POSTs deltas, and restarts happen between sends.
func (h *harness) drive() error {
	// Initial join storm.
	if err := h.sendBatch(h.gen.initialBatch(h.cfg.Nodes), "init"); err != nil {
		return err
	}
	for i := 0; i < h.cfg.Actions; i++ {
		a := h.gen.next()
		switch a.kind {
		case actIngest:
			if err := h.sendBatch(a.batch, "ingest"); err != nil {
				return fmt.Errorf("action %d: %w", i, err)
			}
		case actMalformed:
			if err := h.sendMalformed(a.raw); err != nil {
				return fmt.Errorf("action %d: %w", i, err)
			}
		case actDisconnect:
			h.disconnectMidBody(a.raw)
		case actRestart:
			if err := h.restart(); err != nil {
				return fmt.Errorf("action %d: %w", i, err)
			}
		}
	}
	return nil
}

// sendBatch POSTs one batch, retrying 429 backpressure (honoring
// Retry-After, capped so tests stay fast) until accepted. Anything but
// 202/429 is a contract violation.
func (h *harness) sendBatch(b mldcsd.Batch, why string) error {
	body, err := json.Marshal(b)
	if err != nil {
		return err
	}
	for attempt := 0; attempt < 500; attempt++ {
		resp, err := http.Post(h.base()+"/v1/deltas", "application/json", bytes.NewReader(body))
		if err != nil {
			// The listener is down only inside restart(), which the driver
			// itself runs; a transport error here is real.
			return fmt.Errorf("ingest: %w", err)
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var ack struct {
				Seq uint64 `json:"seq"`
			}
			err := json.NewDecoder(resp.Body).Decode(&ack)
			resp.Body.Close()
			if err != nil {
				return fmt.Errorf("ingest ack: %w", err)
			}
			h.mu.Lock()
			h.lastSeq = ack.Seq
			h.mu.Unlock()
			h.stats.Batches++
			h.stats.Deltas += len(b.Deltas)
			h.logLine(map[string]any{"kind": why, "seq": ack.Seq, "deltas": len(b.Deltas), "retries": attempt})
			return nil
		case http.StatusTooManyRequests:
			h.stats.Retries429++
			resp.Body.Close()
			d := 5 * time.Millisecond
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
				d = time.Duration(ra) * time.Second
			}
			if d > 25*time.Millisecond {
				d = 25 * time.Millisecond
			}
			time.Sleep(d)
		default:
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return fmt.Errorf("ingest (%s): status %d: %s", why, resp.StatusCode, msg)
		}
	}
	return fmt.Errorf("ingest: starved after 500 backpressure retries")
}

// sendMalformed POSTs a hostile body; the contract is 400 and no state
// change (the latter is what the final oracle comparison proves).
func (h *harness) sendMalformed(raw string) error {
	resp, err := http.Post(h.base()+"/v1/deltas", "application/json", bytes.NewReader([]byte(raw)))
	if err != nil {
		return fmt.Errorf("malformed send: %w", err)
	}
	defer resp.Body.Close()
	h.stats.Malformed++
	if resp.StatusCode != http.StatusBadRequest {
		return fmt.Errorf("malformed body %.40q answered %d, want 400", raw, resp.StatusCode)
	}
	h.logLine(map[string]any{"kind": actMalformed, "status": resp.StatusCode})
	return nil
}

// disconnectMidBody opens a raw TCP connection, sends a request whose
// Content-Length promises more than it delivers, and slams the
// connection. The server must treat it as a decode failure: nothing may
// apply (a fully-sent body could have been processed; a short one never).
func (h *harness) disconnectMidBody(partial string) {
	addr := h.base()[len("http://"):]
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return // restart window; nothing to assert
	}
	fmt.Fprintf(conn, "POST /v1/deltas HTTP/1.1\r\nHost: e2e\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		len(partial)+512, partial)
	conn.Close()
	h.stats.Disconnects++
	h.logLine(map[string]any{"kind": actDisconnect})
}

// restart kills the live server mid-load and boots a fresh one, then
// replays the whole intended world as a join storm — the client-side
// re-announcement a real mobility source performs when its collector
// comes back. Accepted-but-unapplied batches on the old server may be
// lost; the sync makes the new server's state exactly the model again.
func (h *harness) restart() error {
	h.stopServer()
	// Bump the generation BEFORE the new server exists: a query worker
	// that saw the same generation before and after its request is then
	// guaranteed to have hit the old server, so its epoch watermark is
	// valid — the new server restarts epochs at zero.
	h.generation.Add(1)
	if err := h.start(); err != nil {
		return err
	}
	h.stats.Restarts++
	h.logLine(map[string]any{"kind": actRestart, "generation": h.generation.Load()})
	if len(h.gen.model.Nodes) == 0 {
		return nil // empty world: a fresh empty server is already converged
	}
	sync, err := h.gen.syncBatch()
	if err != nil {
		return err
	}
	return h.sendBatch(sync, "sync")
}

// queryLoop is one concurrent reader: random forwarding/skyline/epoch
// queries against whatever server is live, checking that every 200 is
// internally consistent and epochs never move backwards within a server
// generation. Transport errors are expected in restart windows and only
// counted.
func (h *harness) queryLoop(worker int, stop <-chan struct{}) {
	rng := int64(worker)*7919 + h.cfg.Seed
	var lastEpoch uint64
	lastGen := int64(-1)
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		rng = rng*6364136223846793005 + 1442695040888963407 // LCG: no shared rand
		id := (rng >> 33) % h.idBound
		if id < 0 {
			id = -id
		}
		genBefore := h.generation.Load()
		kind := i % 8
		var err error
		switch {
		case kind < 5:
			var epoch uint64
			var ok bool
			epoch, ok, err = h.queryForwarding(id)
			if err == nil && ok {
				if genBefore == lastGen && epoch < lastEpoch && genBefore == h.generation.Load() {
					h.failQuery(fmt.Sprintf("epoch went backwards: %d after %d", epoch, lastEpoch))
					return
				}
				if genBefore == h.generation.Load() {
					lastGen, lastEpoch = genBefore, epoch
				}
			}
		case kind < 7:
			err = h.querySkyline(id)
		default:
			err = h.queryEpoch()
		}
		if err != nil {
			atomic.AddInt64(&h.stats.QueryErrors, 1)
		}
		atomic.AddInt64(&h.stats.Queries, 1)
	}
}

func (h *harness) failQuery(msg string) {
	h.queryFailure.CompareAndSwap(nil, &msg)
}

// queryForwarding GETs one node's forwarding set and verifies internal
// consistency: forwarding ⊆ neighbors, both sorted, epoch present. ok is
// true only for a 200 — a 404 (unknown node) carries no epoch to
// watermark against.
func (h *harness) queryForwarding(id int64) (uint64, bool, error) {
	resp, err := http.Get(fmt.Sprintf("%s/v1/forwarding?node=%d", h.base(), id))
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return 0, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		h.failQuery(fmt.Sprintf("forwarding?node=%d status %d", id, resp.StatusCode))
		return 0, false, nil
	}
	var q struct {
		Epoch      uint64  `json:"epoch"`
		Node       int64   `json:"node"`
		Neighbors  []int64 `json:"neighbors"`
		Forwarding []int64 `json:"forwarding"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		h.failQuery(fmt.Sprintf("forwarding decode: %v", err))
		return 0, false, nil
	}
	if q.Node != id {
		h.failQuery(fmt.Sprintf("asked node %d, answered %d", id, q.Node))
		return 0, false, nil
	}
	if !sortedSubset(q.Forwarding, q.Neighbors) {
		h.failQuery(fmt.Sprintf("node %d: forwarding %v ⊄ neighbors %v", id, q.Forwarding, q.Neighbors))
	}
	return q.Epoch, true, nil
}

// querySkyline GETs one node's skyline and verifies the arc list tiles
// [0, 2π] contiguously — the paper's structural invariant, end to end
// through the wire format.
func (h *harness) querySkyline(id int64) error {
	resp, err := http.Get(fmt.Sprintf("%s/v1/skyline?node=%d", h.base(), id))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusNotFound {
			h.failQuery(fmt.Sprintf("skyline?node=%d status %d", id, resp.StatusCode))
		}
		return nil
	}
	var q struct {
		Arcs []struct {
			Start float64 `json:"start"`
			End   float64 `json:"end"`
		} `json:"arcs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		h.failQuery(fmt.Sprintf("skyline decode: %v", err))
		return nil
	}
	if len(q.Arcs) == 0 {
		h.failQuery(fmt.Sprintf("node %d: empty skyline", id))
		return nil
	}
	prev := 0.0
	for _, a := range q.Arcs {
		// Adjacent arcs share their breakpoint bit-exactly in the engine,
		// and JSON round-trips float64 exactly, so the tiling check is
		// exact equality — an epsilon here would mask real seams.
		//mldcslint:allow floatcmp arcs share breakpoints bit-exactly across the wire
		if a.Start != prev || a.End <= a.Start {
			h.failQuery(fmt.Sprintf("node %d: skyline gap at %v→%v", id, prev, a.Start))
			return nil
		}
		prev = a.End
	}
	if prev < 6.283 || prev > 6.284 {
		h.failQuery(fmt.Sprintf("node %d: skyline ends at %v, want 2π", id, prev))
	}
	return nil
}

func (h *harness) queryEpoch() error {
	resp, err := http.Get(h.base() + "/v1/epoch")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		h.failQuery(fmt.Sprintf("/v1/epoch status %d", resp.StatusCode))
	}
	return nil
}

// verify drains the server and compares the converged state against the
// sequential oracle byte for byte.
func (h *harness) verify() error {
	h.mu.Lock()
	want := h.lastSeq
	h.mu.Unlock()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(h.base() + "/v1/epoch")
		if err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		var ep struct {
			AppliedSeq  uint64 `json:"applied_seq"`
			AcceptedSeq uint64 `json:"accepted_seq"`
			QueueLen    int    `json:"queue_len"`
		}
		err = json.NewDecoder(resp.Body).Decode(&ep)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("drain decode: %w", err)
		}
		if ep.AppliedSeq >= want && ep.QueueLen == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("drain: stuck at applied %d / accepted %d, want %d", ep.AppliedSeq, ep.AcceptedSeq, want)
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, err := http.Get(h.base() + "/v1/state")
	if err != nil {
		return fmt.Errorf("state: %w", err)
	}
	defer resp.Body.Close()
	var doc mldcsd.StateDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return fmt.Errorf("state decode: %w", err)
	}
	h.stats.FinalNodes = len(doc.Nodes)
	h.stats.FinalEpoch = doc.Epoch

	oracle, err := OracleNodes(h.gen.model)
	if err != nil {
		return err
	}
	if err := compareStates(doc.Nodes, oracle); err != nil {
		return fmt.Errorf("seed %d: %w", h.cfg.Seed, err)
	}
	return nil
}

func sortedSubset(sub, super []int64) bool {
	j := 0
	for _, v := range sub {
		for j < len(super) && super[j] < v {
			j++
		}
		if j >= len(super) || super[j] != v {
			return false
		}
	}
	return true
}

func (h *harness) logLine(v any) {
	if h.log == nil {
		return
	}
	h.logMu.Lock()
	defer h.logMu.Unlock()
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	h.log.Write(append(b, '\n'))
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// compareStates checks the served state against the oracle byte for byte
// and, on divergence, names the first differing node so a banked seed's
// failure is immediately readable.
func compareStates(served, oracle []mldcsd.NodeState) error {
	sb, err := json.Marshal(served)
	if err != nil {
		return err
	}
	ob, err := json.Marshal(oracle)
	if err != nil {
		return err
	}
	if string(sb) == string(ob) {
		return nil
	}
	// Byte mismatch: locate the first node-level difference.
	if len(served) != len(oracle) {
		return fmt.Errorf("diverged: server has %d nodes, oracle %d", len(served), len(oracle))
	}
	for i := range served {
		s1, _ := json.Marshal(served[i])
		o1, _ := json.Marshal(oracle[i])
		if string(s1) != string(o1) {
			return fmt.Errorf("diverged at node %d:\n  server: %s\n  oracle: %s", served[i].ID, s1, o1)
		}
	}
	return fmt.Errorf("diverged: same nodes, different document bytes:\n  server: %.200s\n  oracle: %.200s", sb, ob)
}
