package mldcsd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/mldcs"
	"repro/internal/obs/expo"
)

// buildMux assembles the full HTTP surface. Every query handler loads
// the published snapshot exactly once and answers from it alone, so a
// response can never mix epochs no matter how the applier races it.
func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/deltas", s.handleDeltas)
	mux.HandleFunc("/v1/forwarding", s.handleForwarding)
	mux.HandleFunc("/v1/skyline", s.handleSkyline)
	mux.HandleFunc("/v1/state", s.handleState)
	mux.HandleFunc("/v1/epoch", s.handleEpoch)
	mux.Handle("/healthz", s.healthHandler())
	// The expo exposition reads gauges at scrape time; refresh the
	// snapshot-age gauge first so "how stale are reads" is one scrape.
	metricsInner := expo.Handler(s.cfg.Registry)
	mux.Handle("/metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.m.epochAge.Set(time.Since(s.snap.Load().Created).Seconds())
		s.m.depth.Set(float64(len(s.queue)))
		metricsInner.ServeHTTP(w, r)
	}))
	return mux
}

// IngestResponse is the 202 body for POST /v1/deltas.
type IngestResponse struct {
	// Seq is the batch's ingest sequence number; the batch is converged
	// once GET /v1/epoch reports applied_seq ≥ Seq.
	Seq uint64 `json:"seq"`
}

// EpochResponse is the GET /v1/epoch body — the convergence probe the
// harness drains against.
type EpochResponse struct {
	Epoch       uint64 `json:"epoch"`
	AppliedSeq  uint64 `json:"applied_seq"`
	AcceptedSeq uint64 `json:"accepted_seq"`
	QueueLen    int    `json:"queue_len"`
	Nodes       int    `json:"nodes"`
	Draining    bool   `json:"draining"`
}

// QueryResponse is the GET /v1/forwarding body.
type QueryResponse struct {
	Epoch      uint64  `json:"epoch"`
	Node       int64   `json:"node"`
	Neighbors  []int64 `json:"neighbors"`
	Forwarding []int64 `json:"forwarding"`
	HubInCover bool    `json:"hub_in_cover"`
}

// SkylineArc is one arc of a node's skyline: the angular interval (at
// the hub, radians in [0, 2π]) covered by the given node's disk.
type SkylineArc struct {
	Node  int64   `json:"node"` // disk owner; the queried node itself for hub arcs
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// SkylineResponse is the GET /v1/skyline body.
type SkylineResponse struct {
	Epoch uint64       `json:"epoch"`
	Node  int64        `json:"node"`
	Arcs  []SkylineArc `json:"arcs"`
}

func (s *Server) handleDeltas(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	b, err := DecodeBatch(body, s.cfg.MaxBatchDeltas)
	if err != nil {
		s.m.malformed.Inc()
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, err.Error())
			return
		}
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	seq, status := s.admit(b)
	switch status {
	case http.StatusAccepted:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(IngestResponse{Seq: seq})
	case http.StatusTooManyRequests:
		// The queue drains at apply speed; one second is a safe, honest
		// hint for a saturated applier without tracking rates.
		w.Header().Set("Retry-After", "1")
		httpError(w, status, "ingest queue full")
	case http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", "5")
		httpError(w, status, "draining: no new ingest")
	default:
		httpError(w, status, "ingest refused")
	}
}

func (s *Server) handleForwarding(w http.ResponseWriter, r *http.Request) {
	s.m.queries.Inc()
	sn := s.snap.Load()
	id, dense, ok := s.lookupNode(w, r, sn)
	if !ok {
		return
	}
	writeJSON(w, QueryResponse{
		Epoch:      sn.Epoch,
		Node:       id,
		Neighbors:  mapIDs(sn.Res.Neighbors(dense), sn.IDs),
		Forwarding: mapIDs(sn.Res.Forwarding(dense), sn.IDs),
		HubInCover: sn.Res.HubInCover(dense),
	})
}

func (s *Server) handleSkyline(w http.ResponseWriter, r *http.Request) {
	s.m.queries.Inc()
	sn := s.snap.Load()
	id, dense, ok := s.lookupNode(w, r, sn)
	if !ok {
		return
	}
	// The engine result keeps forwarding sets, not arc lists, so the
	// skyline is re-derived from the snapshot's local set. Read-only on
	// snapshot data: allocation per request, zero contention.
	var ls mldcs.LocalSet
	ls.Hub = sn.Res.Node(dense).Disk()
	nbrs := sn.Res.Neighbors(dense)
	for _, v := range nbrs {
		ls.Neighbors = append(ls.Neighbors, sn.Res.Node(v).Disk())
	}
	res, err := mldcs.Solve(ls)
	if err != nil {
		s.m.queryErrs.Inc()
		httpError(w, http.StatusInternalServerError, fmt.Sprintf("skyline solve: %v", err))
		return
	}
	arcs := make([]SkylineArc, 0, len(res.Skyline))
	for _, a := range res.Skyline {
		owner := id
		if a.Disk > 0 {
			owner = sn.IDs[nbrs[a.Disk-1]]
		}
		arcs = append(arcs, SkylineArc{Node: owner, Start: a.Start, End: a.End})
	}
	writeJSON(w, SkylineResponse{Epoch: sn.Epoch, Node: id, Arcs: arcs})
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	s.m.queries.Inc()
	writeJSON(w, stateDoc(s.snap.Load()))
}

func (s *Server) handleEpoch(w http.ResponseWriter, r *http.Request) {
	sn := s.snap.Load()
	writeJSON(w, EpochResponse{
		Epoch:       sn.Epoch,
		AppliedSeq:  sn.AppliedSeq,
		AcceptedSeq: s.AcceptedSeq(),
		QueueLen:    len(s.queue),
		Nodes:       len(sn.IDs),
		Draining:    s.Draining(),
	})
}

func (s *Server) healthHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if msg := s.fatal.Load(); msg != nil {
			httpError(w, http.StatusInternalServerError, "engine failed: "+*msg)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
}

// lookupNode parses ?node= and resolves it against the snapshot's dense
// mapping, writing the 400/404 itself when it fails.
func (s *Server) lookupNode(w http.ResponseWriter, r *http.Request, sn *Snapshot) (id int64, dense int, ok bool) {
	raw := r.URL.Query().Get("node")
	id, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || id < 0 {
		s.m.queryErrs.Inc()
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad node %q", raw))
		return 0, 0, false
	}
	dense = sort.Search(len(sn.IDs), func(i int) bool { return sn.IDs[i] >= id })
	if sn.Res == nil || dense >= len(sn.IDs) || sn.IDs[dense] != id {
		s.m.queryErrs.Inc()
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown node %d at epoch %d", id, sn.Epoch))
		return 0, 0, false
	}
	return id, dense, true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		// Headers are gone; nothing to do but drop the connection.
		return
	}
}

type errorDoc struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorDoc{Error: msg})
}
