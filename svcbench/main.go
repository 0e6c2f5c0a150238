// Command svcbench is the end-to-end benchmark of the mldcsd service. It
// builds the service in process, wired as cmd/mldcsd wires it, replays a
// seeded delta stream and query stream against Server.Handler() with no
// sockets, checks every answer and the converged state against the
// sequential oracle, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as one JSON line. See README.md.
//
// Usage, from the repository root:
//
//	bash svcbench/run.sh --workload mobility-100k --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/mldcsd"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// validity is the header that tells a disturbed run from a program
// change: the host, the generator's own lateness, and how busy the
// applier was.
type validity struct {
	NumCPU          int     `json:"num_cpu"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	GoVersion       string  `json:"go_version"`
	Seed            int64   `json:"seed"`
	StealPct        float64 `json:"steal_pct"`
	ApplierBusyPct  float64 `json:"applier_busy_pct"`
	IngestLateMSP99 float64 `json:"ingest_late_ms_p99"`
	QueryLateMSP99  float64 `json:"query_late_ms_p99"`
	MissedEpochs    int     `json:"missed_epochs"`
	WindowSeconds   float64 `json:"window_s"`
	// HostRefMS and HostRefEndMS time the same fixed CPU loop before
	// set-up and after the gate (see hostRefMS).
	HostRefMS    float64 `json:"host_ref_ms"`
	HostRefEndMS float64 `json:"host_ref_end_ms"`
}

// report is the line before the result: everything the repeat tool
// analyzes besides the metrics.
type report struct {
	Workload string            `json:"workload"`
	Seconds  int               `json:"seconds"`
	Trace    bool              `json:"trace"`
	Validity validity          `json:"validity"`
	Samples  map[string]int    `json:"samples"`
	EndToEnd map[string]metric `json:"end_to_end"`
	PerLayer map[string]metric `json:"per_layer,omitempty"`
	// SelfMS is each span name's self time in the traced run, in ms: its
	// spans' durations minus the parts their children cover.
	SelfMS   map[string]float64 `json:"self_ms,omitempty"`
	Spans    string             `json:"spans,omitempty"`
	Failures []string           `json:"failures,omitempty"`
	// Ungated are figures reported for reading but left out of the
	// benchmark's bounded metrics because they are too unsteady to gate.
	Ungated map[string]metric `json:"ungated"`
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "repeat" {
		return runRepeat(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("svcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wname   = fs.String("workload", "", "workload name: mobility-100k, hotspot-5k or churn-5k")
		seed    = fs.Int64("seed", 1, "seed every input is generated from")
		seconds = fs.Int("seconds", 40, "open-loop measurement window, in seconds")
		trace   = fs.Int("trace", 0, "1 = traced run: per-layer metrics and spans in .bench_build/spans/<workload>-<seed>.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*wname)
	if err != nil {
		fmt.Fprintln(stderr, "svcbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "svcbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	spanPath := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", w.name, *seed))
	// The service runs at Go's default GC target whatever the environment
	// says: the garbage it makes per epoch is part of what is measured.
	debug.SetGCPercent(100)

	res, rep, err := runWorkload(w, *seed, *seconds, *trace == 1, spanPath, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "svcbench:", err)
		return 1
	}
	printRun(stdout, res, rep)
	for _, f := range rep.Failures {
		fmt.Fprintln(stderr, "svcbench: failure:", f)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// failures counts operations that failed and keeps the first few reasons.
type failures struct {
	n       int
	reasons []string
}

func (f *failures) add(err error) {
	if err == nil {
		return
	}
	f.n++
	if len(f.reasons) < 10 {
		f.reasons = append(f.reasons, err.Error())
	}
}

func runWorkload(w workload, seed int64, seconds int, traced bool, spanPath string, log io.Writer) (result, report, error) {
	begin := time.Now()
	phase := func(name string) {
		fmt.Fprintf(log, "svcbench: %-8s done at %6.1fs\n", name, time.Since(begin).Seconds())
	}
	nWarm := int(warmup / ingestPeriod)
	nb := nWarm + seconds*int(time.Second/ingestPeriod)
	qWarm := int(warmup / queryPeriod)
	nq := qWarm + seconds*int(time.Second/queryPeriod)
	nCap := capRounds * w.capBatches
	st, err := w.generate(seed, nb+nCap, nq, nb)
	if err != nil {
		return result{}, report{}, fmt.Errorf("%s: generate: %w", w.name, err)
	}
	phase("generate")
	hostRef := hostRefMS()
	var fails failures
	attempted := 0

	// Set-up: build the server from scratch several times and keep the
	// last. The recording buffers exist before the heap baseline is read,
	// so heap_live_mb counts only what the service holds.
	h := &harness{st: st, obs: newObserver(nb + nCap + 1),
		batches: make([]batchRec, nb), queries: make([]queryRec, nq)}
	var setupS []float64
	var heapBefore runtime.MemStats
	for i := 0; i < w.setups; i++ {
		runtime.GC()
		if i == w.setups-1 {
			runtime.ReadMemStats(&heapBefore)
		}
		s, reg, d, err := setup(st)
		attempted++
		if err != nil {
			return result{}, report{}, err
		}
		setupS = append(setupS, d.Seconds())
		if i < w.setups-1 {
			if err := s.Close(); err != nil {
				return result{}, report{}, err
			}
			continue
		}
		h.s, h.h, h.reg = s, s.Handler(), reg
	}
	h.obs.observe(h.s.Latest())
	var memSetup runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&memSetup)

	phase("setup")

	// Warm-up and open-loop window: one ingest and one reader goroutine.
	t0 := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); h.ingestLoop(t0, nb) }()
	go func() { defer wg.Done(); h.readLoop(t0, nq) }()
	sleepUntil(t0.Add(warmup))
	tw0, reg0, cpu0 := time.Now(), h.reg.Snapshot(), readCPU()
	var mem0 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	wg.Wait()
	tw1, reg1, cpu1 := time.Now(), h.reg.Snapshot(), readCPU()
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	attempted += nb + nq
	lastWindowSeq := uint64(nb) + 1
	if err := h.waitVisible(lastWindowSeq); err != nil {
		return result{}, report{}, err
	}
	var heapAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&heapAfter)

	phase("window")

	// Capacity: rounds of a closed loop over a fixed number of batches,
	// with no readers; the median round is reported.
	var dpsRounds, perPassRounds []float64
	for r := 0; r < capRounds; r++ {
		dps, perPass, err := h.capacity(nb+r*w.capBatches, w.capBatches)
		attempted += w.capBatches
		if err != nil {
			return result{}, report{}, err
		}
		dpsRounds = append(dpsRounds, dps)
		perPassRounds = append(perPassRounds, perPass)
	}

	phase("capacity")

	// Drain, then the correctness gate on the served final state.
	h.s.BeginDrain()
	if err := h.s.Close(); err != nil {
		return result{}, report{}, err
	}
	attempted++
	doc, err := h.state()
	if err == nil {
		err = checkState(doc.Nodes, st.final)
	}
	stateOK := err == nil
	fails.add(err)
	hostRefEnd := hostRefMS()

	phase("gate")

	// Window samples.
	var vis, ingLate, postUS []float64
	for i := nWarm; i < nb; i++ {
		b := h.batches[i]
		if b.err != nil {
			fails.add(b.err)
			continue
		}
		at := h.obs.visibleAt(b.seq)
		if at.IsZero() {
			fails.add(fmt.Errorf("batch seq %d never became visible", b.seq))
			continue
		}
		vis = append(vis, ms(at.Sub(b.due).Nanoseconds()))
		ingLate = append(ingLate, ms(b.send.Sub(b.due).Nanoseconds()))
		postUS = append(postUS, us(b.ret.Sub(b.send).Nanoseconds()))
	}
	for i := 0; i < nWarm; i++ {
		fails.add(h.batches[i].err)
	}
	var fwdMS, skyMS, fwdUS, skyUS, qLate []float64
	for j := range h.queries {
		q := h.queries[j]
		if q.err != nil {
			fails.add(q.err)
			continue
		}
		if j < qWarm {
			continue
		}
		lat, svc := ms(q.ret.Sub(q.due).Nanoseconds()), us(q.ret.Sub(q.send).Nanoseconds())
		if q.skyline {
			skyMS, skyUS = append(skyMS, lat), append(skyUS, svc)
		} else {
			fwdMS, fwdUS = append(fwdMS, lat), append(fwdUS, svc)
		}
		qLate = append(qLate, ms(q.send.Sub(q.due).Nanoseconds()))
	}

	window := tw1.Sub(tw0).Seconds()
	lw := layerWindow{
		reg0: reg0, reg1: reg1, mem0: mem0, mem1: mem1, memSetup: memSetup, heapAfter: heapAfter,
		epochs: windowEpochs(h.obs.epochs, uint64(nWarm)+2, lastWindowSeq),
		postUS: postUS, fwdUS: fwdUS, skyUS: skyUS, perPass: mean(perPassRounds),
		busyPct:  100 * timerDelta(reg0, reg1, mldcsd.MetricApplySeconds).sum / window,
		stealPct: stealPct(cpu0, cpu1),
		missed:   h.obs.missed,
		hostRef:  hostRef,
	}
	var perr error
	pct := func(xs []float64, q float64) float64 {
		v, err := percentile(xs, q)
		if err != nil && perr == nil {
			perr = err
		}
		return v
	}
	lw.ingestLateP99, lw.qLateP99 = pct(ingLate, 0.99), pct(qLate, 0.99)
	rep := report{
		Workload: w.name,
		Seconds:  seconds,
		Trace:    traced,
		Validity: validity{
			NumCPU:          runtime.NumCPU(),
			GOMAXPROCS:      runtime.GOMAXPROCS(0),
			GoVersion:       runtime.Version(),
			Seed:            seed,
			StealPct:        lw.stealPct,
			ApplierBusyPct:  lw.busyPct,
			IngestLateMSP99: lw.ingestLateP99,
			QueryLateMSP99:  lw.qLateP99,
			MissedEpochs:    lw.missed,
			WindowSeconds:   window,
			HostRefMS:       hostRef,
			HostRefEndMS:    hostRefEnd,
		},
		Samples: map[string]int{
			"setup_s":              len(setupS),
			"delta_visible_p50_ms": len(vis), "delta_visible_p90_ms": len(vis), "delta_visible_p95_ms": len(vis), "delta_visible_p99_ms": len(vis),
			"forwarding_p50_ms": len(fwdMS), "forwarding_p99_ms": len(fwdMS),
			"skyline_p50_ms": len(skyMS), "skyline_p99_ms": len(skyMS),
			"ingest_capacity_dps": capRounds,
			"heap_live_mb":        1,
		},
		EndToEnd: map[string]metric{
			"setup_s":              {median(setupS), "s"},
			"delta_visible_p50_ms": {pct(vis, 0.5), "ms"},
			"forwarding_p50_ms":    {pct(fwdMS, 0.5), "ms"},
			"skyline_p50_ms":       {pct(skyMS, 0.5), "ms"},
			"ingest_capacity_dps":  {median(dpsRounds), "deltas/s"},
			"heap_live_mb":         {(float64(heapAfter.HeapAlloc) - float64(heapBefore.HeapAlloc)) / 1e6, "MB"},
		},
		Failures: fails.reasons,
		// The latency tails rest on the few operations a GC cycle or a slow
		// phase of the host hits, and moved by a quarter or more from run to
		// run on the hosts this was tuned on; see README.md.
		Ungated: map[string]metric{
			"delta_visible_p90_ms": {pct(vis, 0.9), "ms"},
			"delta_visible_p95_ms": {pct(vis, 0.95), "ms"},
			"delta_visible_p99_ms": {pct(vis, 0.99), "ms"},
			"forwarding_p99_ms":    {pct(fwdMS, 0.99), "ms"},
			"skyline_p99_ms":       {pct(skyMS, 0.99), "ms"},
		},
	}
	if perr != nil {
		return result{}, report{}, fmt.Errorf("%s: %w", w.name, perr)
	}
	res := result{Correct: stateOK && fails.n == 0, Attempted: attempted, Failed: fails.n, Metrics: rep.EndToEnd}
	if !traced {
		return res, rep, nil
	}

	// Traced run: spans from the open loop's samples, then the replay
	// through the layers, then the per-layer metrics.
	tr := newTracer(t0)
	h.traceService(tr)
	rs, err := replay(st, nb, nq, tr)
	if err != nil {
		return result{}, report{}, fmt.Errorf("%s: replay: %w", w.name, err)
	}
	phase("replay")
	var samples map[string]int
	rep.PerLayer, samples, err = lw.metrics(rs)
	if err != nil {
		return result{}, report{}, fmt.Errorf("%s: %w", w.name, err)
	}
	for name, k := range samples {
		rep.Samples[name] = k
	}
	rep.SelfMS = tr.selfTimes()
	if err := tr.write(spanPath); err != nil {
		return result{}, report{}, err
	}
	rep.Spans = spanPath
	res.Metrics = rep.PerLayer
	return res, rep, nil
}

// timerStat is a registry timer's count and sum (seconds) between two
// snapshots. Only Sum and Count are read: the timers' quantiles are
// bucketed and step by several percent, too coarse to compare runs.
type timerStat struct {
	count int64
	sum   float64
}

func timerDelta(a, b obs.Snapshot, name string) timerStat {
	return timerStat{count: b.Timers[name].Count - a.Timers[name].Count, sum: b.Timers[name].Sum - a.Timers[name].Sum}
}

func (t timerStat) meanMS() float64 {
	if t.count == 0 {
		return 0
	}
	return 1e3 * t.sum / float64(t.count)
}

// windowEpochs returns the observed epochs that publish window batches.
func windowEpochs(all []epochRec, firstSeq, lastSeq uint64) []epochRec {
	var out []epochRec
	prev := uint64(0)
	for _, e := range all {
		if e.seq >= firstSeq && prev < lastSeq {
			out = append(out, e)
		}
		prev = e.seq
	}
	return out
}

func printRun(w io.Writer, res result, rep report) {
	v := rep.Validity
	fmt.Fprintf(w, "svcbench: workload=%s seed=%d seconds=%d trace=%v\n", rep.Workload, v.Seed, rep.Seconds, rep.Trace)
	fmt.Fprintf(w, "validity: num_cpu=%d gomaxprocs=%d go=%s steal_pct=%.2f host_ref_ms=%.2f/%.2f applier_busy_pct=%.1f ingest_late_ms_p99=%.3f query_late_ms_p99=%.3f missed_epochs=%d\n",
		v.NumCPU, v.GOMAXPROCS, v.GoVersion, v.StealPct, v.HostRefMS, v.HostRefEndMS, v.ApplierBusyPct, v.IngestLateMSP99, v.QueryLateMSP99, v.MissedEpochs)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-30s %14.6g %-9s samples=%d\n", name, m.Value, m.Unit, rep.Samples[name])
	}
	for _, name := range sortedKeys(rep.Ungated) {
		m := rep.Ungated[name]
		fmt.Fprintf(w, "  %-30s %14.6g %-9s samples=%d (not gated)\n", name, m.Value, m.Unit, rep.Samples[name])
	}
	fmt.Fprintf(w, "operations: attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	line, _ := json.Marshal(map[string]report{"report": rep})
	fmt.Fprintf(w, "%s\n", line)
	line, _ = json.Marshal(res)
	fmt.Fprintf(w, "%s\n", line)
}

// epochStats sums the engine accounting of a set of published epochs.
func epochStats(eps []epochRec) (sum engine.Stats, imbalanceMax float64, nodes int) {
	for _, e := range eps {
		s := e.stats
		sum.Moved += s.Moved
		sum.Dirty += s.Dirty
		sum.Repaired += s.Repaired
		sum.Recomputed += s.Recomputed
		sum.RepairFallbacks += s.RepairFallbacks
		sum.Fallbacks += s.Fallbacks
		sum.CacheHits += s.CacheHits
		sum.CacheMisses += s.CacheMisses
		sum.Steals += s.Steals
		imbalanceMax = max(imbalanceMax, s.WorkerImbalance)
		nodes += e.nodes
	}
	return sum, imbalanceMax, nodes
}
