package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/mldcs"
	"repro/internal/mldcsd"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/skyline"
	"repro/internal/spatial"
)

// span is one timed call in a traced run. Spans of one batch or query
// share a trace id; Parent 0 marks a root.
type span struct {
	Trace  string         `json:"trace"`
	ID     int            `json:"id"`
	Parent int            `json:"parent"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"` // since the open loop began
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// reserve returns a span id for a parent whose end is not known yet.
func (t *tracer) reserve() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{})
	return len(t.spans)
}

// put records span id (from reserve) or, with id 0, a new span.
func (t *tracer) put(id int, trace string, parent int, name string, start, end time.Time, attrs map[string]any) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.spans = append(t.spans, span{})
		id = len(t.spans)
	}
	t.spans[id-1] = span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Attrs: attrs}
	return id
}

// selfTimes sums, per span name, each span's duration minus the parts of
// it its children cover, in milliseconds.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		out[s.Name] += ms(s.End - s.Start - child[s.ID])
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// traceService turns the open loop's raw samples into spans: per batch,
// its POST and its wait from 202 to the covering snapshot (carrying that
// epoch's engine stats); per query, its GET. Root spans start at the due
// time, so their self time is the generator's lateness.
func (h *harness) traceService(tr *tracer) {
	eps := h.obs.epochs
	for i, b := range h.batches {
		if b.err != nil {
			continue
		}
		vis := h.obs.visibleAt(b.seq)
		trace := "batch-" + strconv.Itoa(i)
		root := tr.reserve()
		tr.put(0, trace, root, "mldcsd.post", b.send, b.ret, nil)
		k := sort.Search(len(eps), func(k int) bool { return eps[k].seq >= b.seq })
		var attrs map[string]any
		if k < len(eps) {
			attrs = map[string]any{"epoch": eps[k].epoch, "applied_seq": eps[k].seq, "stats": eps[k].stats}
		}
		tr.put(0, trace, root, "mldcsd.visible", b.ret, laterOf(b.ret, vis), attrs)
		tr.put(root, trace, 0, "bench.batch", b.due, laterOf(b.ret, vis), map[string]any{"seq": b.seq})
	}
	for j, q := range h.queries {
		if q.err != nil {
			continue
		}
		trace := "query-" + strconv.Itoa(j)
		name := "mldcsd.forwarding"
		if q.skyline {
			name = "mldcsd.skyline"
		}
		root := tr.reserve()
		tr.put(0, trace, root, name, q.send, q.ret, map[string]any{"node": q.node, "epoch": q.epoch})
		tr.put(root, trace, 0, "bench.query", q.due, q.ret, nil)
	}
}

func laterOf(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// replayWorld applies decoded batches with the service's semantics (join
// upserts, move of an absent node is ignored, leave removes) and renders
// the dense engine input in ascending external-ID order, as mldcsd does.
type replayWorld struct {
	nodes map[int64]network.Node
	ids   []int64
	stale bool
}

func (w *replayWorld) apply(b mldcsd.Batch) (membershipChanged bool) {
	for _, d := range b.Deltas {
		n, ok := w.nodes[d.Node]
		switch d.Op {
		case mldcsd.OpJoin:
			membershipChanged = membershipChanged || !ok
			w.nodes[d.Node] = network.Node{Pos: geom.Pt(*d.X, *d.Y), Radius: *d.R}
		case mldcsd.OpMove:
			if ok {
				n.Pos = geom.Pt(*d.X, *d.Y)
				w.nodes[d.Node] = n
			}
		case mldcsd.OpRadius:
			if ok {
				n.Radius = *d.R
				w.nodes[d.Node] = n
			}
		case mldcsd.OpLeave:
			if ok {
				delete(w.nodes, d.Node)
				membershipChanged = true
			}
		}
	}
	w.stale = w.stale || membershipChanged
	return membershipChanged
}

func (w *replayWorld) dense() []network.Node {
	if w.stale || w.ids == nil {
		w.ids = w.ids[:0]
		for id := range w.nodes {
			w.ids = append(w.ids, id)
		}
		sort.Slice(w.ids, func(i, j int) bool { return w.ids[i] < w.ids[j] })
		w.stale = false
	}
	out := make([]network.Node, len(w.ids))
	for i, id := range w.ids {
		n := w.nodes[id]
		n.ID = i
		out[i] = n
	}
	return out
}

func (w *replayWorld) index(id int64) (int, bool) {
	i := sort.Search(len(w.ids), func(i int) bool { return w.ids[i] >= id })
	return i, i < len(w.ids) && w.ids[i] == id
}

// replayStats are the per-layer samples of the replay.
type replayStats struct {
	engineMS, gridMS                  []float64
	skyUS, skyDisks, skyArcs, solveUS []float64
}

// solveEvery picks which skyline queries the replay re-solves: one query
// in solveEvery, which keeps the replay short on dense workloads while
// leaving well over 1000 samples for mldcs.solve_us_p99.
const solveEvery = 4

// replay runs the open loop's stream again on one goroutine, through the
// layers directly, one engine pass per batch: mldcsd.DecodeBatch, then
// spatial.NewGrid (whenever the pass is a full Compute), then the
// engine's Compute or Update, then (*skyline.Scratch).ComputeInto on the
// local set of every node the batch moved or joined, and mldcs.Solve for
// the skyline queries due before the next batch. The registry's
// skyline_compute_seconds cannot separate these: it mixes the engine's
// recomputes with the query handler's solves.
func replay(st *stream, nb, nq int, tr *tracer) (replayStats, error) {
	var rs replayStats
	eng := engine.New(engine.Config{Cache: true})
	w := &replayWorld{nodes: make(map[int64]network.Node, st.initialN)}
	var sc skyline.Scratch
	var dst skyline.Skyline
	var res *engine.Result
	var dense []network.Node
	perBatch := int(ingestPeriod / queryPeriod)

	step := func(trace string, body []byte, touched []int64, setup bool) error {
		root := tr.reserve()
		start := time.Now()
		b, err := mldcsd.DecodeBatch(bytes.NewReader(body), max(4096, st.initialN))
		tr.put(0, trace, root, "mldcsd.decode", start, time.Now(), nil)
		if err != nil {
			return err
		}
		changed := w.apply(b)
		dense = w.dense()
		if changed || res == nil {
			pts := make([]geom.Point, len(dense))
			maxR := 0.0
			for i, n := range dense {
				pts[i] = n.Pos
				maxR = max(maxR, n.Radius)
			}
			t := time.Now()
			spatial.NewGrid(pts, maxR)
			end := time.Now()
			tr.put(0, trace, root, "spatial.grid_build", t, end, map[string]any{"nodes": len(pts)})
			rs.gridMS = append(rs.gridMS, ms(end.Sub(t).Nanoseconds()))
			t = time.Now()
			res, err = eng.Compute(dense)
			end = time.Now()
			tr.put(0, trace, root, "engine.compute", t, end, nil)
			if !setup {
				rs.engineMS = append(rs.engineMS, ms(end.Sub(t).Nanoseconds()))
			}
		} else {
			t := time.Now()
			res, err = eng.Update(dense)
			end := time.Now()
			tr.put(0, trace, root, "engine.update", t, end, nil)
			rs.engineMS = append(rs.engineMS, ms(end.Sub(t).Nanoseconds()))
		}
		if err != nil {
			return err
		}
		for _, id := range touched {
			u, ok := w.index(id)
			if !ok {
				continue
			}
			disks := localSet(dense, res, u).All()
			t := time.Now()
			dst, err = sc.ComputeInto(dst, disks)
			end := time.Now()
			if err != nil {
				return fmt.Errorf("skyline of node %d: %w", id, err)
			}
			tr.put(0, trace, root, "skyline.compute", t, end, map[string]any{"node": id, "disks": len(disks), "arcs": len(dst)})
			rs.skyUS = append(rs.skyUS, us(end.Sub(t).Nanoseconds()))
			rs.skyDisks = append(rs.skyDisks, float64(len(disks)))
			rs.skyArcs = append(rs.skyArcs, float64(len(dst)))
		}
		tr.put(root, trace, 0, "replay.batch", start, time.Now(), nil)
		return nil
	}

	if err := step("replay-setup", st.initial, nil, true); err != nil {
		return rs, err
	}
	for i := 0; i < nb; i++ {
		if err := step("replay-"+strconv.Itoa(i), st.batches[i], st.touched[i], false); err != nil {
			return rs, fmt.Errorf("batch %d: %w", i, err)
		}
		for j := i * perBatch; j < min((i+1)*perBatch, nq); j++ {
			if j%solveEvery != 1 {
				continue
			}
			u, ok := w.index(st.queries[j])
			if !ok {
				continue
			}
			ls := localSet(dense, res, u)
			t := time.Now()
			_, err := mldcs.Solve(ls)
			end := time.Now()
			if err != nil {
				return rs, fmt.Errorf("solve node %d: %w", st.queries[j], err)
			}
			tr.put(0, "solve-"+strconv.Itoa(j), 0, "mldcs.solve", t, end, map[string]any{"node": st.queries[j], "disks": len(ls.Neighbors) + 1})
			rs.solveUS = append(rs.solveUS, us(end.Sub(t).Nanoseconds()))
		}
	}
	return rs, nil
}

func localSet(dense []network.Node, res *engine.Result, u int) mldcs.LocalSet {
	ls := mldcs.LocalSet{Hub: dense[u].Disk(), Neighbors: make([]geom.Disk, 0, len(res.Neighbors[u]))}
	for _, v := range res.Neighbors[u] {
		ls.Neighbors = append(ls.Neighbors, dense[v].Disk())
	}
	return ls
}

// layerWindow holds the live run's readings the per-layer metrics are
// computed from.
type layerWindow struct {
	reg0, reg1              obs.Snapshot
	mem0, mem1              runtime.MemStats // around the open-loop window
	memSetup, heapAfter     runtime.MemStats // forced-GC readings before and after it
	epochs                  []epochRec
	postUS, fwdUS, skyUS    []float64
	perPass                 float64
	busyPct, stealPct       float64
	ingestLateP99, qLateP99 float64
	missed                  int
	hostRef                 float64
}

// metrics computes every per-layer metric with its sample count.
func (lw layerWindow) metrics(rs replayStats) (map[string]metric, map[string]int, error) {
	out := make(map[string]metric)
	n := make(map[string]int)
	var err error
	set := func(name string, v float64, unit string, samples int) {
		out[name] = metric{v, unit}
		n[name] = samples
	}
	pct := func(name string, xs []float64, q float64, unit string) {
		v, perr := percentile(xs, q)
		if perr != nil && err == nil {
			err = fmt.Errorf("%s: %w", name, perr)
		}
		set(name, v, unit, len(xs))
	}
	apply := timerDelta(lw.reg0, lw.reg1, mldcsd.MetricApplySeconds)
	lag := timerDelta(lw.reg0, lw.reg1, mldcsd.MetricIngestLag)
	upd := timerDelta(lw.reg0, lw.reg1, engine.MetricUpdateSeconds)
	cmp := timerDelta(lw.reg0, lw.reg1, engine.MetricComputeSeconds)
	engPass := timerStat{count: upd.count + cmp.count, sum: upd.sum + cmp.sum}

	pct("mldcsd.post_us_p50", lw.postUS, 0.5, "us")
	set("mldcsd.pass_ms_mean", apply.meanMS(), "ms", int(apply.count))
	set("mldcsd.queue_wait_ms_mean", lag.meanMS(), "ms", int(lag.count))
	set("mldcsd.self_ms_mean", apply.meanMS()-engPass.meanMS(), "ms", int(apply.count))
	set("mldcsd.batches_per_pass", lw.perPass, "count", 1)
	pct("mldcsd.forwarding_us_p50", lw.fwdUS, 0.5, "us")
	pct("mldcsd.forwarding_us_p99", lw.fwdUS, 0.99, "us")
	pct("mldcsd.skyline_us_p50", lw.skyUS, 0.5, "us")
	pct("mldcsd.skyline_us_p99", lw.skyUS, 0.99, "us")

	sum, imb, nodes := epochStats(lw.epochs)
	eps := len(lw.epochs)
	set("engine.pass_ms_mean", mean(rs.engineMS), "ms", len(rs.engineMS))
	set("engine.moved_per_pass", ratio(float64(sum.Moved), float64(eps)), "count", eps)
	set("engine.dirty_per_pass", ratio(float64(sum.Dirty), float64(eps)), "count", eps)
	set("engine.dirty_fraction", ratio(float64(sum.Dirty), float64(nodes)), "ratio", eps)
	set("engine.repair_ratio", ratio(float64(sum.Repaired), float64(sum.Repaired+sum.Recomputed)), "ratio", eps)
	set("engine.repair_fallbacks", float64(sum.RepairFallbacks), "count", eps)
	set("engine.fallbacks", float64(sum.Fallbacks), "count", eps)
	set("engine.cache_hit_ratio", ratio(float64(sum.CacheHits), float64(sum.CacheHits+sum.CacheMisses)), "ratio", eps)
	set("engine.cache_inserts", float64(sum.CacheMisses), "count", eps)
	set("engine.worker_imbalance_max", imb, "ratio", eps)
	set("engine.steals", float64(sum.Steals), "count", eps)

	pct("skyline.compute_us_p50", rs.skyUS, 0.5, "us")
	pct("skyline.compute_us_p99", rs.skyUS, 0.99, "us")
	pct("skyline.disks_p50", rs.skyDisks, 0.5, "count")
	pct("skyline.arcs_p50", rs.skyArcs, 0.5, "count")
	pct("mldcs.solve_us_p50", rs.solveUS, 0.5, "us")
	pct("mldcs.solve_us_p99", rs.solveUS, 0.99, "us")
	set("spatial.grid_build_ms", mean(rs.gridMS), "ms", len(rs.gridMS))

	set("runtime.alloc_mb_per_pass", ratio(float64(lw.mem1.TotalAlloc-lw.mem0.TotalAlloc)/1e6, float64(apply.count)), "MB", int(apply.count))
	set("runtime.gc_cycles", float64(lw.mem1.NumGC-lw.mem0.NumGC), "count", 1)
	set("runtime.gc_pause_ms", ms(int64(lw.mem1.PauseTotalNs-lw.mem0.PauseTotalNs)), "ms", int(lw.mem1.NumGC-lw.mem0.NumGC))
	set("runtime.heap_growth_mb", (float64(lw.heapAfter.HeapAlloc)-float64(lw.memSetup.HeapAlloc))/1e6, "MB", 1)

	set("bench.ingest_late_ms_p99", lw.ingestLateP99, "ms", len(lw.postUS))
	set("bench.query_late_ms_p99", lw.qLateP99, "ms", len(lw.fwdUS)+len(lw.skyUS))
	set("bench.missed_epochs", float64(lw.missed), "count", eps)
	set("bench.applier_busy_pct", lw.busyPct, "%", int(apply.count))
	set("bench.steal_pct", lw.stealPct, "%", 1)
	set("bench.host_ref_ms", lw.hostRef, "ms", 5)
	return out, n, err
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
