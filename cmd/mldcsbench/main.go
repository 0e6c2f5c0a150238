// Command mldcsbench runs the engine scaling sweep: a cores × workers ×
// workload × contention matrix executed in-process, each cell measuring
// one Compute pass plus a run of mobility Update ticks with latency
// quantiles taken from the internal/obs histograms (engine_update_seconds)
// rather than wall-clock-over-iterations, so the tail (p99/p999) is
// visible, not just the mean. Per-worker load-imbalance stats ride along
// in every cell to diagnose skew.
//
// The sweep writes one JSON report (default BENCH_sweep.json). `benchdiff
// -append -sweep` converts it into trajectory entries keyed per (cores,
// workload, contention) and `benchdiff -check` gates on them — `make
// bench-sweep` chains all three.
//
//	mldcsbench -cores 1,2 -workers 1,2,4 -workloads uniform,zipf \
//	           -contention 1.2 -nodes 5000 -ticks 50 -benchtime 3x
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/deploy"
	"repro/internal/engine"
	"repro/internal/mobility"
	"repro/internal/obs"
)

// sweepCell is one matrix point's measurements. Tick quantiles come from
// the obs timer histogram over every Update of the cell (all reps); the
// imbalance block reports the worst tick (highest max/mean nodes ratio)
// so skew can't hide in an average.
type sweepCell struct {
	Cores      int     `json:"cores"`
	Workers    int     `json:"workers"`
	Workload   string  `json:"workload"`
	Contention float64 `json:"contention"`
	Nodes      int     `json:"nodes"`

	ComputeMS  float64 `json:"compute_ms"`
	TickP50MS  float64 `json:"tick_p50_ms"`
	TickP90MS  float64 `json:"tick_p90_ms"`
	TickP99MS  float64 `json:"tick_p99_ms"`
	TickP999MS float64 `json:"tick_p999_ms"`

	WorkerImbalance float64 `json:"worker_imbalance"`
	WorkerMaxNodes  int     `json:"worker_max_nodes"`
	WorkerMeanNodes float64 `json:"worker_mean_nodes"`
	Steals          int     `json:"steals"`
}

// sweepReport is the machine-readable output of one sweep run.
type sweepReport struct {
	TS     string      `json:"ts"`
	NumCPU int         `json:"num_cpu"`
	Ticks  int         `json:"ticks"`
	Movers int         `json:"movers"`
	Reps   int         `json:"reps"`
	Seed   int64       `json:"seed"`
	Cells  []sweepCell `json:"cells"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mldcsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out        = fs.String("out", "BENCH_sweep.json", "sweep report output path")
		coresFlag  = fs.String("cores", "", "comma-separated GOMAXPROCS values (default: 1 and NumCPU)")
		workersF   = fs.String("workers", "1,2,4", "comma-separated engine worker counts")
		workloadsF = fs.String("workloads", "uniform,zipf", "comma-separated workloads: uniform, zipf")
		contF      = fs.String("contention", "1.2", "comma-separated zipf contention exponents (> 0)")
		nodesF     = fs.Int("nodes", 5000, "approximate node count per deployment")
		degreeF    = fs.Float64("degree", 10, "target mean degree")
		hotspotsF  = fs.Int("hotspots", 8, "hotspot cluster count for zipf workloads")
		spreadF    = fs.Float64("spread", 0.6, "hotspot Gaussian spread (region units)")
		ticksF     = fs.Int("ticks", 50, "Update ticks measured per rep")
		moversF    = fs.Int("movers", 0, "movers per tick (default: 1% of nodes, min 1)")
		benchtime  = fs.String("benchtime", "3x", "reps per cell, Go benchtime syntax (e.g. 1x, 5x)")
		seedF      = fs.Int64("seed", 1, "base RNG seed (same deployment across all cells)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	reps, err := parseBenchtime(*benchtime)
	if err != nil {
		fmt.Fprintln(stderr, "mldcsbench:", err)
		return 2
	}
	cores, err := parseInts(coresDefault(*coresFlag))
	if err != nil {
		fmt.Fprintln(stderr, "mldcsbench: -cores:", err)
		return 2
	}
	workers, err := parseInts(*workersF)
	if err != nil {
		fmt.Fprintln(stderr, "mldcsbench: -workers:", err)
		return 2
	}
	contentions, err := parseFloats(*contF)
	if err != nil {
		fmt.Fprintln(stderr, "mldcsbench: -contention:", err)
		return 2
	}
	points, err := workloadPoints(*workloadsF, contentions)
	if err != nil {
		fmt.Fprintln(stderr, "mldcsbench:", err)
		return 2
	}
	movers := *moversF
	if movers <= 0 {
		movers = max(1, *nodesF/100)
	}

	rep := sweepReport{
		TS:     time.Now().UTC().Format(time.RFC3339),
		NumCPU: runtime.NumCPU(),
		Ticks:  *ticksF,
		Movers: movers,
		Reps:   reps,
		Seed:   *seedF,
	}
	base := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(base)
	defer engine.Instrument(nil, nil)
	for _, c := range cores {
		runtime.GOMAXPROCS(c)
		for _, w := range workers {
			for _, p := range points {
				cell, err := runCell(cellConfig{
					cores: c, workers: w, point: p,
					nodes: *nodesF, degree: *degreeF,
					hotspots: *hotspotsF, spread: *spreadF,
					ticks: *ticksF, movers: movers, reps: reps, seed: *seedF,
				})
				if err != nil {
					fmt.Fprintln(stderr, "mldcsbench:", err)
					return 1
				}
				rep.Cells = append(rep.Cells, cell)
				fmt.Fprintf(stdout,
					"cores=%d workers=%d %s/c=%g: compute %.2fms tick p50 %.3fms p99 %.3fms imbalance %.2f steals %d\n",
					c, w, p.workload, p.contention, cell.ComputeMS,
					cell.TickP50MS, cell.TickP99MS, cell.WorkerImbalance, cell.Steals)
			}
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "mldcsbench:", err)
		return 1
	}
	if dir := filepath.Dir(*out); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(stderr, "mldcsbench:", err)
			return 1
		}
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, "mldcsbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %d cells to %s\n", len(rep.Cells), *out)
	return 0
}

// workloadPoint is one workload × contention coordinate of the matrix.
type workloadPoint struct {
	workload   string
	contention float64
}

// workloadPoints expands the workload and contention lists: uniform is
// always contention 0; zipf takes every positive contention value.
func workloadPoints(workloads string, contentions []float64) ([]workloadPoint, error) {
	var out []workloadPoint
	for _, w := range strings.Split(workloads, ",") {
		switch w = strings.TrimSpace(w); w {
		case "uniform":
			out = append(out, workloadPoint{workload: "uniform"})
		case "zipf":
			added := false
			for _, c := range contentions {
				if c > 0 {
					out = append(out, workloadPoint{workload: "zipf", contention: c})
					added = true
				}
			}
			if !added {
				return nil, fmt.Errorf("zipf workload needs at least one contention value > 0")
			}
		case "":
		default:
			return nil, fmt.Errorf("unknown workload %q (want uniform or zipf)", w)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no workloads selected")
	}
	return out, nil
}

type cellConfig struct {
	cores, workers int
	point          workloadPoint
	nodes          int
	degree         float64
	hotspots       int
	spread         float64
	ticks, movers  int
	reps           int
	seed           int64
}

// runCell measures one matrix cell: reps × (fresh workload + engine,
// one Compute, ticks × Step+Update), with all Update latencies pooled in
// one obs timer histogram. Compute takes the fastest rep; the imbalance
// block keeps the worst tick seen.
func runCell(cc cellConfig) (sweepCell, error) {
	reg := obs.NewRegistry()
	engine.Instrument(reg, nil)
	cell := sweepCell{
		Cores: cc.cores, Workers: cc.workers,
		Workload: cc.point.workload, Contention: cc.point.contention,
	}
	dcfg := deploy.PaperConfig(deploy.Heterogeneous, cc.degree)
	dcfg.Side = math.Sqrt(float64(cc.nodes) * math.Pi * dcfg.ExpectedMinRadiusSq() / cc.degree)
	hcfg := mobility.HotspotConfig{
		Deploy:     dcfg,
		Hotspots:   cc.hotspots,
		Contention: cc.point.contention,
		Spread:     cc.spread,
		MoveFrac:   0.02,
	}
	for rep := 0; rep < cc.reps; rep++ {
		w, err := mobility.NewHotspotWorkload(hcfg, rand.New(rand.NewSource(cc.seed)))
		if err != nil {
			return cell, err
		}
		e := engine.New(engine.Config{Workers: cc.workers})
		start := time.Now()
		res, err := e.Compute(w.Nodes())
		if err != nil {
			return cell, err
		}
		computeMS := float64(time.Since(start)) / float64(time.Millisecond)
		if rep == 0 || computeMS < cell.ComputeMS {
			cell.ComputeMS = computeMS
		}
		cell.Nodes = res.Stats.Nodes
		mrng := rand.New(rand.NewSource(cc.seed + 1))
		for t := 0; t < cc.ticks; t++ {
			w.Step(cc.movers, mrng)
			res, err = e.Update(w.Nodes())
			if err != nil {
				return cell, err
			}
			cell.Steals += res.Stats.Steals
			if res.Stats.WorkerImbalance > cell.WorkerImbalance {
				cell.WorkerImbalance = res.Stats.WorkerImbalance
				cell.WorkerMaxNodes = res.Stats.WorkerMaxNodes
				cell.WorkerMeanNodes = res.Stats.WorkerMeanNodes
			}
		}
	}
	snap := reg.Snapshot()
	tick := snap.Timers[engine.MetricUpdateSeconds]
	cell.TickP50MS = tick.P50 * 1e3
	cell.TickP90MS = tick.P90 * 1e3
	cell.TickP99MS = tick.P99 * 1e3
	cell.TickP999MS = tick.P999 * 1e3
	return cell, nil
}

// coresDefault resolves the -cores default: 1 plus the machine's core
// count when it has more than one.
func coresDefault(flagVal string) string {
	if flagVal != "" {
		return flagVal
	}
	if n := runtime.NumCPU(); n > 1 {
		return fmt.Sprintf("1,%d", n)
	}
	return "1"
}

// parseBenchtime accepts Go's -benchtime count form ("3x").
func parseBenchtime(s string) (int, error) {
	v, ok := strings.CutSuffix(s, "x")
	if !ok {
		return 0, fmt.Errorf("-benchtime %q: only the count form (e.g. 3x) is supported", s)
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("-benchtime %q: want a positive count like 3x", s)
	}
	return n, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("%q is not a positive integer", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("%q is not a non-negative number", f)
		}
		out = append(out, v)
	}
	return out, nil
}
