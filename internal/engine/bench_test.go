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
)

// benchDeployment builds a heterogeneous deployment of ≈ n nodes at the
// paper's density (mean degree 10) by scaling the region.
func benchDeployment(n int, seed int64) ([]network.Node, float64, error) {
	const degree = 10
	cfg := deploy.PaperConfig(deploy.Heterogeneous, degree)
	cfg.Side = math.Sqrt(float64(n) * math.Pi * cfg.ExpectedMinRadiusSq() / degree)
	nodes, err := deploy.Generate(cfg, rand.New(rand.NewSource(seed)))
	return nodes, cfg.Side, err
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

// BenchmarkEngine times one bulk Compute on a fresh engine; kin-B/node is
// the kinetic state it leaves behind, per node.
func BenchmarkEngine(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			nodes, _, err := benchDeployment(n, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var e *Engine
			for i := 0; i < b.N; i++ {
				e = New(Config{})
				if _, err := e.Compute(nodes); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(kinBytesPerNode(e), "kin-B/node")
		})
	}
}

// BenchmarkEngineUpdate measures the incremental path: one random-waypoint
// step dirties a subset of the network, and Update recomputes only that.
func BenchmarkEngineUpdate(b *testing.B) {
	const n = 10000
	nodes, side, err := benchDeployment(n, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	model, err := mobility.NewModel(mobility.WaypointConfig{
		Side: side, SpeedMin: 0.5, SpeedMax: 1.5, PauseMax: 5,
	}, nodes, rng)
	if err != nil {
		b.Fatal(err)
	}
	e := New(Config{})
	if _, err := e.Compute(nodes); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Step(0.05)
		if _, err := e.Update(model.Nodes()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineUpdateKinetic measures one pure-mobility tick (≈1% of
// nodes drift by ≤2% of their own radius) with the kinetic repair path on
// and off — the microbenchmark behind the report's update section.
func BenchmarkEngineUpdateKinetic(b *testing.B) {
	const n = 20000
	nodes, _, err := benchDeployment(n, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, disable := range []bool{false, true} {
		b.Run(fmt.Sprintf("repair=%v", !disable), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			cur := append([]network.Node(nil), nodes...)
			e := New(Config{Workers: 1, DisableRepair: disable})
			if _, err := e.Compute(cur); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				smallMoveStep(rng, cur, 1+n/100, 0.02)
				if _, err := e.Update(cur); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkApply measures one incremental pass through Apply at 100k
// nodes, on one worker and on two. movers=k: k random nodes slide by ≤2%
// of their radius (k=20 is one batch of the mldcsd mobility-100k service
// workload, k=320 a full coalesced group of 16 such batches). churn: 2
// nodes leave and 2 join elsewhere in the freed slots, one batch of the
// churn-5k workload. B/op is dominated by publishing: the copied pages of
// the dirty nodes plus the page directory. kin-B/node is the kinetic
// state's footprint per slot after the sub-benchmark's passes.
func BenchmarkApply(b *testing.B) {
	const n = 100000
	nodes, side, err := benchDeployment(n, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchApply(b, nodes, side, workers)
		})
	}
}

// benchApply runs BenchmarkApply's passes on one engine with the given
// worker count.
func benchApply(b *testing.B, nodes []network.Node, side float64, workers int) {
	n := len(nodes)
	e := New(Config{Workers: workers})
	if _, err := e.Compute(nodes); err != nil {
		b.Fatal(err)
	}
	cur := make([]Delta, n)
	for i, nd := range nodes {
		cur[i] = Delta{Slot: i, Key: int64(i), Pos: nd.Pos, Radius: nd.Radius}
	}
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{20, 320} {
		b.Run(fmt.Sprintf("movers=%d", k), func(b *testing.B) {
			moved := make([]Delta, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range moved {
					u := rng.Intn(n)
					step := 0.02 * cur[u].Radius
					cur[u].Pos.X += (rng.Float64()*2 - 1) * step
					cur[u].Pos.Y += (rng.Float64()*2 - 1) * step
					moved[j] = cur[u]
				}
				if _, err := e.Apply(moved); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(kinBytesPerNode(e), "kin-B/node")
		})
	}
	b.Run("churn", func(b *testing.B) {
		ds := make([]Delta, 4)
		key := int64(n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < 2; j++ {
				u := rng.Intn(n)
				key++
				cur[u].Key = key
				cur[u].Pos = geom.Pt(rng.Float64()*side, rng.Float64()*side)
				ds[2*j] = Delta{Slot: u, Leave: true}
				ds[2*j+1] = cur[u]
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

	// Update workload: a pure-mobility tick stream (≈1% of nodes drift a
	// little each tick) replayed twice from identical precomputed move
	// scripts — once with kinetic repair, once with DisableRepair — so the
	// two rows differ only in the Update strategy.
	ticks := 40
	movedPerTick := 1 + n/100
	scripts := benchUpdateScripts(nodes, ticks, movedPerTick, 3)
	repair := benchUpdateRun(t, "update-repair", nodes, scripts, workers, false)
	recomp := benchUpdateRun(t, "update-recompute", nodes, scripts, workers, true)
	if repair.TickP50MS > 0 {
		repair.SpeedupP50 = recomp.TickP50MS / repair.TickP50MS
	}
	if repair.TickP99MS > 0 {
		repair.SpeedupP99 = recomp.TickP99MS / repair.TickP99MS
	}
	report.Update = append(report.Update, repair, recomp)

	// Scaling section: uniform-random Compute plus a zipf-contended
	// Update stream at 1/2/4/8/16 workers, speedups relative to the
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

// benchUpdateEntry is one row of the report's update section: tick-latency
// quantiles for a pure-mobility Update stream under one repair strategy.
// speedup_p50/p99 are filled only on the repair row (repair vs recompute on
// the identical move script).
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
	// Worst-tick worker imbalance (max/mean nodes) across the run's
	// Update passes.
	WorkerImbalance float64 `json:"worker_imbalance,omitempty"`
}

// moveOp is one scripted displacement: node idx ends the tick at pos. The
// scripts carry absolute positions (the random walk is simulated once up
// front), so replaying them against two engines yields bit-identical node
// states regardless of replay order or strategy.
type moveOp struct {
	idx int
	pos geom.Point
}

// benchUpdateScripts precomputes ticks' worth of small-move mobility:
// each tick, moved random nodes drift by at most 2% of their own radius.
func benchUpdateScripts(nodes []network.Node, ticks, moved int, seed int64) [][]moveOp {
	rng := rand.New(rand.NewSource(seed))
	cur := append([]network.Node(nil), nodes...)
	scripts := make([][]moveOp, ticks)
	for t := range scripts {
		ops := make([]moveOp, moved)
		for i := range ops {
			u := rng.Intn(len(cur))
			step := 0.02 * cur[u].Radius
			cur[u].Pos.X += (rng.Float64()*2 - 1) * step
			cur[u].Pos.Y += (rng.Float64()*2 - 1) * step
			ops[i] = moveOp{idx: u, pos: cur[u].Pos}
		}
		scripts[t] = ops
	}
	return scripts
}

// benchUpdateRun replays the move scripts against one engine configuration
// and reports tick-latency quantiles plus the accumulated kinetic counters.
func benchUpdateRun(t *testing.T, name string, nodes []network.Node, scripts [][]moveOp, workers int, disableRepair bool) benchUpdateEntry {
	t.Helper()
	cur := append([]network.Node(nil), nodes...)
	e := New(Config{Workers: workers, DisableRepair: disableRepair})
	if _, err := e.Compute(cur); err != nil {
		t.Fatal(err)
	}
	entry := benchUpdateEntry{
		Workload: name,
		Nodes:    len(nodes),
		Workers:  workers,
		Ticks:    len(scripts),
	}
	ticksMS := make([]float64, 0, len(scripts))
	for _, ops := range scripts {
		if entry.MovedPerTick == 0 {
			entry.MovedPerTick = len(ops)
		}
		for _, op := range ops {
			cur[op.idx].Pos = op.pos
		}
		start := time.Now()
		res, err := e.Update(cur)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		ticksMS = append(ticksMS, float64(elapsed.Microseconds())/1000)
		entry.Repaired += res.Stats.Repaired
		entry.Recomputed += res.Stats.Recomputed
		entry.RepairFallbacks += res.Stats.RepairFallbacks
		if res.Stats.WorkerImbalance > entry.WorkerImbalance {
			entry.WorkerImbalance = res.Stats.WorkerImbalance
		}
	}
	sort.Float64s(ticksMS)
	entry.TickP50MS = benchQuantile(ticksMS, 0.50)
	entry.TickP99MS = benchQuantile(ticksMS, 0.99)
	return entry
}

// benchScalingEntry is one worker count's row in the report's scaling
// section: uniform-random Compute wall time (median of 3) with its
// speedup vs the 1-worker row, plus a zipf-contended Update stream's tick
// quantiles — the workload whose hot cells the shared batch cursor must
// spread over the workers.
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

// benchZipfUpdate runs a zipf-contended (hotspot) mobility stream against
// one worker count and fills the entry's zipf fields. The same seed drives
// every worker count, so all rows measure the identical workload.
func benchZipfUpdate(t *testing.T, e *benchScalingEntry, n, workers int) {
	t.Helper()
	const degree = 10
	dcfg := deploy.PaperConfig(deploy.Heterogeneous, degree)
	dcfg.Side = math.Sqrt(float64(n) * math.Pi * dcfg.ExpectedMinRadiusSq() / degree)
	w, err := mobility.NewHotspotWorkload(mobility.HotspotConfig{
		Deploy:     dcfg,
		Hotspots:   8,
		Contention: 1.2,
		Spread:     0.6,
		MoveFrac:   0.02,
	}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Config{Workers: workers})
	res, err := eng.Compute(w.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	e.ZipfNodes = res.Stats.Nodes
	const ticks = 15
	movers := 1 + e.ZipfNodes/100
	mrng := rand.New(rand.NewSource(6))
	ticksMS := make([]float64, 0, ticks)
	for i := 0; i < ticks; i++ {
		w.Step(movers, mrng)
		start := time.Now()
		res, err = eng.Update(w.Nodes())
		if err != nil {
			t.Fatal(err)
		}
		ticksMS = append(ticksMS, float64(time.Since(start).Microseconds())/1000)
		if res.Stats.WorkerImbalance > e.ZipfImbalance {
			e.ZipfImbalance = res.Stats.WorkerImbalance
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
