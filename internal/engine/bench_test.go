package engine

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/geom"
	"repro/internal/mldcs"
	"repro/internal/mobility"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/skyline"
	"repro/internal/spatial"
)

// benchConfig is the paper's heterogeneous deployment (mean degree 10)
// with its region scaled to hold ≈ n nodes.
func benchConfig(n int) deploy.Config {
	const degree = 10
	cfg := deploy.PaperConfig(deploy.Heterogeneous, degree)
	cfg.Side = math.Sqrt(float64(n) * math.Pi * cfg.ExpectedMinRadiusSq() / degree)
	return cfg
}

// benchDeployment builds a heterogeneous deployment of ≈ n nodes at the
// paper's density (mean degree 10) by scaling the region.
func benchDeployment(n int, seed int64) ([]network.Node, float64, error) {
	cfg := benchConfig(n)
	nodes, err := deploy.Generate(cfg, rand.New(rand.NewSource(seed)))
	return nodes, cfg.Side, err
}

// benchMovers is the small-move process every incremental bench drives
// Apply with: benchConfig(n)'s deployment, where each move drifts a node by
// at most 2% of its radius per axis. At contention 0 it places exactly
// benchDeployment(n, seed)'s nodes and picks movers uniformly (one
// rng.Intn, then two Float64s per move); above 0 both placement and movers
// skew into 8 zipf-weighted hotspots.
func benchMovers(n int, contention float64, seed int64) (*mobility.HotspotWorkload, error) {
	return mobility.NewHotspotWorkload(mobility.HotspotConfig{
		Deploy:     benchConfig(n),
		Hotspots:   8,
		Contention: contention,
		Spread:     0.6,
		MoveFrac:   0.02,
	}, rand.New(rand.NewSource(seed)))
}

// moveDeltas refills ds with the Apply deltas of the moved nodes: each
// node's current state in nodes, under its deployment ID as the key, in
// slot slot[u], or in slot u (as Compute assigns them) when slot is nil.
func moveDeltas(ds []Delta, nodes []network.Node, slot []int, moved []int) []Delta {
	ds = ds[:0]
	for _, u := range moved {
		n, s := nodes[u], u
		if slot != nil {
			s = slot[u]
		}
		ds = append(ds, Delta{Slot: s, Key: int64(u), Pos: n.Pos, Radius: n.Radius})
	}
	return ds
}

// curveEngine builds an engine over nodes the way mldcsd builds one: a
// single Apply of curveJoins(nodes). It returns the engine and each node's
// slot.
func curveEngine(cfg Config, nodes []network.Node) (*Engine, []int, error) {
	joins, slot := curveJoins(nodes)
	e := New(cfg)
	if _, err := e.Apply(joins); err != nil {
		return nil, nil, err
	}
	return e, slot, nil
}

// curveJoins returns the whole deployment as joins, keyed by deployment
// ID, whose slots follow spatial.HilbertOrder, and each node's slot.
func curveJoins(nodes []network.Node) ([]Delta, []int) {
	pts := make([]geom.Point, len(nodes))
	for i, n := range nodes {
		pts[i] = n.Pos
	}
	slot := make([]int, len(nodes))
	joins := make([]Delta, len(nodes))
	for s, u := range spatial.HilbertOrder(pts) {
		slot[u] = s
		joins[s] = Delta{Slot: s, Key: int64(u), Pos: nodes[u].Pos, Radius: nodes[u].Radius}
	}
	return joins, slot
}

// benchSequential is the per-node baseline the engine is measured against.
func benchSequential(nodes []network.Node) error {
	g, err := network.Build(nodes, network.Bidirectional)
	if err != nil {
		return err
	}
	for u := 0; u < g.Len(); u++ {
		ls, _, err := g.LocalSet(u)
		if err != nil {
			return err
		}
		if _, err := mldcs.Solve(ls); err != nil {
			return err
		}
	}
	return nil
}

func BenchmarkSequential(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			nodes, _, err := benchDeployment(n, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := benchSequential(nodes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngine times one bulk pass on a fresh engine, on one worker and
// on two, over two slot layouts of the same deployment: layout=dense is
// Compute, slot i holding deployment node i; layout=curve is the one Apply
// of joins mldcsd builds its engine with (curveJoins, as curveEngine
// applies them), slots along the Hilbert curve. kin-B/node is the kinetic
// state the pass leaves behind, per node.
func BenchmarkEngine(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		nodes, _, err := benchDeployment(n, 1)
		if err != nil {
			b.Fatal(err)
		}
		joins, _ := curveJoins(nodes)
		for _, layout := range []string{"dense", "curve"} {
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("n=%d/layout=%s/workers=%d", n, layout, workers), func(b *testing.B) {
					var e *Engine
					for i := 0; i < b.N; i++ {
						e = New(Config{Workers: workers})
						var err error
						if layout == "dense" {
							_, err = e.Compute(nodes)
						} else {
							_, err = e.Apply(joins)
						}
						if err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(kinBytesPerNode(e), "kin-B/node")
				})
			}
		}
	}
}

// BenchmarkApply measures one incremental pass through Apply at 100k
// nodes: on one worker and on two, and on one worker with DisableRepair,
// the baseline kinetic repair is measured against. The engine is built as
// mldcsd builds it (curveEngine), so its slots follow the Hilbert curve
// and the cells time the memory layout the service serves. movers=k: k
// nodes of benchMovers' uniform process slide by ≤2% of their radius
// (k=20 is one batch of the mldcsd mobility-100k service workload, k=320
// a full coalesced group of 16 such batches). churn: 2 nodes leave and 2
// join elsewhere in the freed slots, one batch of the churn-5k workload.
// B/op is dominated by publishing: the copied pages of the dirty nodes
// plus the page directory. kin-B/node is the kinetic state's footprint
// per slot after the sub-benchmark's passes.
//
// An A/B of the churn cell needs at least 3000 passes (-benchtime=3000x).
// A few hundred passes last about 0.1 s, so where a GC mark phase lands
// decides the reading: in the lean-kinetic-state A/B (docs/PERFORMANCE.md)
// the two-worker churn cell read 0.306 → 0.376 ms at 300x, slower in 10 of
// 10 pairs, but 0.338 → 0.314 ms at 3000x.
func BenchmarkApply(b *testing.B) {
	const n = 100000
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"workers=1", Config{Workers: 1}},
		{"workers=2", Config{Workers: 2}},
		{"workers=1/repair=off", Config{Workers: 1, DisableRepair: true}},
	} {
		b.Run(c.name, func(b *testing.B) { benchApply(b, n, c.cfg) })
	}
}

// benchApply runs BenchmarkApply's passes on one engine with the given
// configuration.
func benchApply(b *testing.B, n int, cfg Config) {
	w, err := benchMovers(n, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	nodes := w.Nodes()
	e, slot, err := curveEngine(cfg, nodes)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var ds []Delta
	for _, k := range []int{20, 320} {
		b.Run(fmt.Sprintf("movers=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ds = moveDeltas(ds, nodes, slot, w.Step(k, rng))
				if _, err := e.Apply(ds); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(kinBytesPerNode(e), "kin-B/node")
		})
	}
	b.Run("churn", func(b *testing.B) {
		side := benchConfig(n).Side
		ds := make([]Delta, 4)
		key := int64(len(nodes))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < 2; j++ {
				u := rng.Intn(len(nodes))
				key++
				nodes[u].Pos = geom.Pt(rng.Float64()*side, rng.Float64()*side)
				ds[2*j] = Delta{Slot: slot[u], Leave: true}
				ds[2*j+1] = Delta{Slot: slot[u], Key: key, Pos: nodes[u].Pos, Radius: nodes[u].Radius}
			}
			if _, err := e.Apply(ds); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(kinBytesPerNode(e), "kin-B/node")
	})
}

// benchReportEntry is one workload's row in BENCH_engine.json. The
// node_p* fields are the per-node skyline recompute latency distribution
// (in microseconds) observed across the workload's engine passes — the
// latency side of the story that the wall-time totals cannot show.
type benchReportEntry struct {
	Workload     string  `json:"workload"`
	Nodes        int     `json:"nodes"`
	Workers      int     `json:"workers"`
	SequentialMS float64 `json:"sequential_ms"`
	EngineMS     float64 `json:"engine_ms"`
	Speedup      float64 `json:"speedup"`
	NodeP50US    float64 `json:"node_p50_us"`
	NodeP90US    float64 `json:"node_p90_us"`
	NodeP99US    float64 `json:"node_p99_us"`
	NodeP999US   float64 `json:"node_p999_us"`
	// Worker-pool load balance of the last engine pass (see Stats).
	WorkerImbalance float64 `json:"worker_imbalance,omitempty"`
}

// TestEngineBenchReport writes the machine-readable engine benchmark used
// by `make bench`: engine-vs-sequential wall times on a uniform random
// deployment plus a structured (zero-jitter grid) workload. Skipped unless ENGINE_BENCH_OUT names the output file; the
// network size defaults to 100000 and can be overridden with
// ENGINE_BENCH_N, the worker count defaults to GOMAXPROCS and can be
// overridden with ENGINE_BENCH_WORKERS. The ≥3× speedup acceptance
// criterion applies on ≥ 4 cores — the report records the actual core
// count and per-workload workers so single-core runs are interpretable.
func TestEngineBenchReport(t *testing.T) {
	out := os.Getenv("ENGINE_BENCH_OUT")
	if out == "" {
		t.Skip("set ENGINE_BENCH_OUT=<path> to write the engine benchmark report")
	}
	n := 100000
	if s := os.Getenv("ENGINE_BENCH_N"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			t.Fatalf("bad ENGINE_BENCH_N %q", s)
		}
		n = v
	}
	workers := runtime.GOMAXPROCS(0)
	if s := os.Getenv("ENGINE_BENCH_WORKERS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			t.Fatalf("bad ENGINE_BENCH_WORKERS %q", s)
		}
		workers = v
	}

	// num_cpu (the machine's core count) and gomaxprocs (the Go scheduler's
	// parallelism cap) are recorded separately: the old single "cores" field
	// conflated them, which made runs under a GOMAXPROCS clamp (cgroup
	// limits, taskset, GOMAXPROCS=n) silently comparable to full-machine
	// runs in the trajectory.
	report := struct {
		Nodes      int                 `json:"nodes"`
		NumCPU     int                 `json:"num_cpu"`
		Gomaxprocs int                 `json:"gomaxprocs"`
		Workers    int                 `json:"workers"`
		Workloads  []benchReportEntry  `json:"workloads"`
		Update     []benchUpdateEntry  `json:"update"`
		Scaling    []benchScalingEntry `json:"scaling"`
	}{Nodes: n, NumCPU: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0), Workers: workers}

	// Uniform random workload: the parallel speedup story.
	nodes, _, err := benchDeployment(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	report.Workloads = append(report.Workloads, benchWorkload(t, "uniform-random", nodes, workers))

	// Structured workload: zero-jitter grid at the same scale, where
	// neighborhoods repeat bit for bit and exact disk ties are common.
	gcfg := deploy.PaperConfig(deploy.Homogeneous, 10)
	gcfg.Side = math.Sqrt(float64(n) * math.Pi * gcfg.ExpectedMinRadiusSq() / 10)
	gcfg.SourceAtCenter = false
	grid, err := deploy.GeneratePerturbedGrid(gcfg, 0, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	report.Workloads = append(report.Workloads, benchWorkload(t, "grid-homogeneous", grid, workers))

	// Update section: 40 Apply passes of benchMovers' uniform process over
	// the same deployment (≈1% of nodes drift a little each pass), run
	// twice from the same seeds — once with kinetic repair, once with
	// DisableRepair — so the two rows differ only in the repair strategy.
	movedPerTick := 1 + n/100
	repair := benchUpdateRun(t, "update-repair", n, movedPerTick, Config{Workers: workers})
	recomp := benchUpdateRun(t, "update-recompute", n, movedPerTick, Config{Workers: workers, DisableRepair: true})
	if repair.TickP50MS > 0 {
		repair.SpeedupP50 = recomp.TickP50MS / repair.TickP50MS
	}
	if repair.TickP99MS > 0 {
		repair.SpeedupP99 = recomp.TickP99MS / repair.TickP99MS
	}
	report.Update = append(report.Update, repair, recomp)

	// Scaling section: uniform-random Compute plus a zipf-contended
	// stream of Apply passes at 1/2/4/8/16 workers, speedups relative to the
	// 1-worker row. Worker counts beyond GOMAXPROCS still run (the pool
	// time-slices them), so the section is populated — and honest, since
	// the machine fields record the real parallelism cap — even on a
	// single-core box.
	report.Scaling = benchScaling(t, nodes, n)

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (n=%d, num_cpu=%d, gomaxprocs=%d)", out, n, report.NumCPU, report.Gomaxprocs)
}

// benchPasses is how many interleaved sequential/engine passes each
// workload runs; the report keeps the median of each side. A single pass
// on a small machine is ±5% noisy — enough to flip a near-1× speedup's
// sign run to run — while a median of three is stable.
const benchPasses = 3

func median3(v [benchPasses]float64) float64 {
	a, b, c := v[0], v[1], v[2]
	return math.Max(math.Min(a, b), math.Min(math.Max(a, b), c))
}

func benchWorkload(t *testing.T, name string, nodes []network.Node, workers int) benchReportEntry {
	t.Helper()
	var seq, eng [benchPasses]float64
	var res *Result
	// Scoped registry: skyline instrumentation is installed only around
	// the engine passes, so the per-node latency distribution covers
	// exactly the engine's recomputes (not the sequential baseline's).
	reg := obs.NewRegistry()
	for pass := 0; pass < benchPasses; pass++ {
		start := time.Now()
		if err := benchSequential(nodes); err != nil {
			t.Fatal(err)
		}
		seq[pass] = float64(time.Since(start).Microseconds()) / 1000

		skyline.Instrument(reg)
		start = time.Now()
		r, err := New(Config{Workers: workers}).Compute(nodes)
		elapsed := time.Since(start)
		skyline.Instrument(nil)
		if err != nil {
			t.Fatal(err)
		}
		eng[pass] = float64(elapsed.Microseconds()) / 1000
		res = r
	}
	seqMS := median3(seq)
	engMS := median3(eng)
	nodeLat := reg.Snapshot().Timers[skyline.MetricComputeSeconds]

	e := benchReportEntry{
		Workload:     name,
		Nodes:        len(nodes),
		Workers:      res.Stats.Workers,
		SequentialMS: seqMS,
		EngineMS:     engMS,
		NodeP50US:    nodeLat.P50 * 1e6,
		NodeP90US:    nodeLat.P90 * 1e6,
		NodeP99US:    nodeLat.P99 * 1e6,
		NodeP999US:   nodeLat.P999 * 1e6,

		WorkerImbalance: res.Stats.WorkerImbalance,
	}
	if engMS > 0 {
		e.Speedup = seqMS / engMS
	}
	return e
}

// benchUpdateEntry is one row of the report's update section: pass-latency
// quantiles for a pure-mobility stream of Apply passes under one repair
// strategy. speedup_p50/p99 are filled only on the repair row (repair vs
// recompute on the identical moves).
type benchUpdateEntry struct {
	Workload        string  `json:"workload"`
	Nodes           int     `json:"nodes"`
	Workers         int     `json:"workers"`
	MovedPerTick    int     `json:"moved_per_tick"`
	Ticks           int     `json:"ticks"`
	TickP50MS       float64 `json:"tick_p50_ms"`
	TickP99MS       float64 `json:"tick_p99_ms"`
	Repaired        int     `json:"repaired"`
	Recomputed      int     `json:"recomputed"`
	RepairFallbacks int     `json:"repair_fallbacks"`
	SpeedupP50      float64 `json:"speedup_p50,omitempty"`
	SpeedupP99      float64 `json:"speedup_p99,omitempty"`
	// Worst-pass worker imbalance (max/mean nodes) across the run.
	WorkerImbalance float64 `json:"worker_imbalance,omitempty"`
}

// benchUpdateTicks is how many Apply passes each update row times.
const benchUpdateTicks = 40

// benchUpdateRun drives one engine configuration through benchUpdateTicks
// passes of benchMovers' uniform process (deployment seed 1, mover seed 3)
// and reports pass-latency quantiles plus the accumulated kinetic
// counters.
func benchUpdateRun(t *testing.T, name string, n, movers int, cfg Config) benchUpdateEntry {
	t.Helper()
	w, err := benchMovers(n, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	nodes := w.Nodes()
	e := New(cfg)
	if _, err := e.Compute(nodes); err != nil {
		t.Fatal(err)
	}
	entry := benchUpdateEntry{
		Workload:     name,
		Nodes:        len(nodes),
		Workers:      cfg.Workers,
		MovedPerTick: movers,
		Ticks:        benchUpdateTicks,
	}
	rng := rand.New(rand.NewSource(3))
	var ds []Delta
	ticksMS := make([]float64, 0, benchUpdateTicks)
	for i := 0; i < benchUpdateTicks; i++ {
		ds = moveDeltas(ds, nodes, nil, w.Step(movers, rng))
		start := time.Now()
		v, err := e.Apply(ds)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		ticksMS = append(ticksMS, float64(elapsed.Microseconds())/1000)
		entry.Repaired += v.Stats.Repaired
		entry.Recomputed += v.Stats.Recomputed
		entry.RepairFallbacks += v.Stats.RepairFallbacks
		if v.Stats.WorkerImbalance > entry.WorkerImbalance {
			entry.WorkerImbalance = v.Stats.WorkerImbalance
		}
	}
	sort.Float64s(ticksMS)
	entry.TickP50MS = benchQuantile(ticksMS, 0.50)
	entry.TickP99MS = benchQuantile(ticksMS, 0.99)
	return entry
}

// benchScalingEntry is one worker count's row in the report's scaling
// section: uniform-random Compute wall time (median of 3) with its
// speedup vs the 1-worker row, plus a zipf-contended stream of Apply
// passes' latency quantiles — the workload whose hot cells the shared
// batch cursor must spread over the workers.
type benchScalingEntry struct {
	Workers         int     `json:"workers"`
	ComputeMS       float64 `json:"compute_ms"`
	Speedup         float64 `json:"speedup"`
	WorkerImbalance float64 `json:"worker_imbalance"`
	ZipfNodes       int     `json:"zipf_nodes"`
	ZipfTickP50MS   float64 `json:"zipf_tick_p50_ms"`
	ZipfTickP99MS   float64 `json:"zipf_tick_p99_ms"`
	ZipfImbalance   float64 `json:"zipf_worker_imbalance"`
}

// benchScalingWorkers is the worker axis of the scaling section.
var benchScalingWorkers = []int{1, 2, 4, 8, 16}

func benchScaling(t *testing.T, nodes []network.Node, n int) []benchScalingEntry {
	t.Helper()
	// The zipf workload is capped: its hotspots have fixed spread, so
	// in-cluster degree — and per-node solve cost — grows with n, and an
	// uncapped run would dwarf the rest of the report.
	zipfN := min(n, 5000)
	var out []benchScalingEntry
	for _, w := range benchScalingWorkers {
		var eng [benchPasses]float64
		var res *Result
		for pass := 0; pass < benchPasses; pass++ {
			start := time.Now()
			r, err := New(Config{Workers: w}).Compute(nodes)
			if err != nil {
				t.Fatal(err)
			}
			eng[pass] = float64(time.Since(start).Microseconds()) / 1000
			res = r
		}
		e := benchScalingEntry{
			Workers:         w,
			ComputeMS:       median3(eng),
			WorkerImbalance: res.Stats.WorkerImbalance,
		}
		benchZipfUpdate(t, &e, zipfN, w)
		out = append(out, e)
	}
	base := out[0].ComputeMS
	for i := range out {
		if out[i].ComputeMS > 0 {
			out[i].Speedup = base / out[i].ComputeMS
		}
	}
	return out
}

// benchZipfUpdate drives benchMovers' zipf-contended process (contention
// 1.2, deployment seed 5, mover seed 6) through Apply on one worker count
// and fills the entry's zipf fields. The same seeds drive every worker
// count, so all rows measure the identical workload.
func benchZipfUpdate(t *testing.T, e *benchScalingEntry, n, workers int) {
	t.Helper()
	w, err := benchMovers(n, 1.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	nodes := w.Nodes()
	eng := New(Config{Workers: workers})
	res, err := eng.Compute(nodes)
	if err != nil {
		t.Fatal(err)
	}
	e.ZipfNodes = res.Stats.Nodes
	const ticks = 15
	movers := 1 + e.ZipfNodes/100
	mrng := rand.New(rand.NewSource(6))
	var ds []Delta
	ticksMS := make([]float64, 0, ticks)
	for i := 0; i < ticks; i++ {
		ds = moveDeltas(ds, nodes, nil, w.Step(movers, mrng))
		start := time.Now()
		v, err := eng.Apply(ds)
		if err != nil {
			t.Fatal(err)
		}
		ticksMS = append(ticksMS, float64(time.Since(start).Microseconds())/1000)
		if v.Stats.WorkerImbalance > e.ZipfImbalance {
			e.ZipfImbalance = v.Stats.WorkerImbalance
		}
	}
	sort.Float64s(ticksMS)
	e.ZipfTickP50MS = benchQuantile(ticksMS, 0.50)
	e.ZipfTickP99MS = benchQuantile(ticksMS, 0.99)
}

// benchQuantile reads quantile q from an ascending-sorted slice
// (nearest-rank; good enough for a 40-sample tick distribution).
func benchQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
