// Command benchdiff maintains and gates on the longitudinal benchmark
// trajectory results/BENCH_trajectory.jsonl: an append-only JSONL history
// of benchmark runs, one line per (source, workload) configuration, each
// carrying the run's wall time, latency quantiles, core/worker counts,
// and git SHA.
//
// Two modes:
//
//	benchdiff -append -engine BENCH_engine.json -skyline BENCH_skyline.json \
//	          -trajectory results/BENCH_trajectory.jsonl -sha $(git rev-parse --short HEAD)
//	    Convert the machine-readable BENCH_*.json reports into trajectory
//	    entries and append them (make bench / make bench-skyline do this).
//
//	benchdiff -check -trajectory results/BENCH_trajectory.jsonl [-threshold 1.30]
//	    For every configuration key (source, workload, nodes, num_cpu,
//	    gomaxprocs, workers), compare the most recent entry against the
//	    median of its predecessors and exit non-zero if it is more than
//	    threshold× slower. The trajectory — not a single run — is the
//	    regression gate: one noisy historical run cannot flip the verdict,
//	    and runs from machines with different core counts or a different
//	    GOMAXPROCS clamp never compare. (Older lines carry the legacy
//	    single "cores" field, which conflated the two; it stays part of
//	    the key, so legacy and current lines form disjoint groups instead
//	    of silently comparing.)
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/stats"
)

// entry is one trajectory line. MS is the configuration's primary
// latency: whole-network engine wall time for engine entries, per-call
// ComputeInto time for skyline entries.
type entry struct {
	TS     string `json:"ts,omitempty"`
	SHA    string `json:"sha,omitempty"`
	Source string `json:"source"`

	Workload string `json:"workload"`
	Nodes    int    `json:"nodes"`
	// Cores is the legacy machine descriptor (conflated NumCPU with
	// GOMAXPROCS); retained so old trajectory lines round-trip and key
	// separately from current ones.
	Cores        int     `json:"cores,omitempty"`
	NumCPU       int     `json:"num_cpu,omitempty"`
	Gomaxprocs   int     `json:"gomaxprocs,omitempty"`
	Workers      int     `json:"workers"`
	MS           float64 `json:"ms"`
	TickP99MS    float64 `json:"tick_p99_ms,omitempty"`
	SequentialMS float64 `json:"sequential_ms,omitempty"`
	Speedup      float64 `json:"speedup,omitempty"`
	NodeP50US    float64 `json:"node_p50_us,omitempty"`
	NodeP90US    float64 `json:"node_p90_us,omitempty"`
	NodeP99US    float64 `json:"node_p99_us,omitempty"`
	NodeP999US   float64 `json:"node_p999_us,omitempty"`
}

// key is the comparison unit: entries only ever compare within the same
// workload shape on the same machine class under the same parallelism
// cap. Legacy entries (Cores set, NumCPU/Gomaxprocs zero) and current
// ones (the reverse) can never collide.
type key struct {
	Source     string
	Workload   string
	Nodes      int
	Cores      int
	NumCPU     int
	Gomaxprocs int
	Workers    int
}

func (e entry) key() key {
	return key{e.Source, e.Workload, e.Nodes, e.Cores, e.NumCPU, e.Gomaxprocs, e.Workers}
}

// engineReport mirrors the BENCH_engine.json schema written by
// TestEngineBenchReport.
type engineReport struct {
	Nodes      int `json:"nodes"`
	NumCPU     int `json:"num_cpu"`
	Gomaxprocs int `json:"gomaxprocs"`
	Workers    int `json:"workers"`
	Workloads  []struct {
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
	} `json:"workloads"`
	Update []struct {
		Workload  string  `json:"workload"`
		Nodes     int     `json:"nodes"`
		Workers   int     `json:"workers"`
		TickP50MS float64 `json:"tick_p50_ms"`
		TickP99MS float64 `json:"tick_p99_ms"`
	} `json:"update"`
}

// skylineReport mirrors the BENCH_skyline.json schema written by
// TestSkylineBenchReport.
type skylineReport struct {
	NumCPU     int `json:"num_cpu"`
	Gomaxprocs int `json:"gomaxprocs"`
	Sizes      []struct {
		N                 int     `json:"n"`
		ComputeIntoNsOp   float64 `json:"compute_into_ns_op"`
		ComputeIntoAllocs float64 `json:"compute_into_allocs_op"`
	} `json:"sizes"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		doAppend   = fs.Bool("append", false, "append BENCH report(s) to the trajectory")
		doCheck    = fs.Bool("check", false, "check the latest entry of each configuration against its history")
		trajectory = fs.String("trajectory", "results/BENCH_trajectory.jsonl", "trajectory JSONL path")
		enginePath = fs.String("engine", "", "with -append: BENCH_engine.json to convert")
		skyPath    = fs.String("skyline", "", "with -append: BENCH_skyline.json to convert")
		sha        = fs.String("sha", "", "with -append: git SHA to stamp on the entries")
		ts         = fs.String("ts", "", "with -append: RFC3339 timestamp (default: now, UTC)")
		threshold  = fs.Float64("threshold", 1.30, "with -check: fail when latest > threshold × median of prior runs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *doAppend == *doCheck:
		fmt.Fprintln(stderr, "benchdiff: exactly one of -append or -check is required")
		fs.Usage()
		return 2
	case *doAppend:
		if *enginePath == "" && *skyPath == "" {
			fmt.Fprintln(stderr, "benchdiff: -append needs -engine and/or -skyline")
			return 2
		}
		stamp := *ts
		if stamp == "" {
			stamp = time.Now().UTC().Format(time.RFC3339)
		}
		if err := appendReports(*trajectory, *enginePath, *skyPath, *sha, stamp, stdout); err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 1
		}
		return 0
	default:
		regressions, err := check(*trajectory, *threshold, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 1
		}
		if regressions > 0 {
			fmt.Fprintf(stderr, "benchdiff: %d regression(s) above %.2fx\n", regressions, *threshold)
			return 1
		}
		return 0
	}
}

// appendReports converts the given BENCH reports to entries and appends
// them to the trajectory file, creating it (and its directory) if needed.
func appendReports(trajectory, enginePath, skyPath, sha, ts string, stdout io.Writer) error {
	var entries []entry
	if enginePath != "" {
		es, err := engineEntries(enginePath, sha, ts)
		if err != nil {
			return err
		}
		entries = append(entries, es...)
	}
	if skyPath != "" {
		es, err := skylineEntries(skyPath, sha, ts)
		if err != nil {
			return err
		}
		entries = append(entries, es...)
	}
	if err := os.MkdirAll(filepath.Dir(trajectory), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(trajectory, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for _, e := range entries {
		line, err := json.Marshal(e)
		if err != nil {
			return err
		}
		w.Write(line)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "appended %d entries to %s\n", len(entries), trajectory)
	return f.Close()
}

func engineEntries(path, sha, ts string) ([]entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep engineReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var out []entry
	for _, w := range rep.Workloads {
		out = append(out, entry{
			TS: ts, SHA: sha,
			Source:       "engine",
			Workload:     w.Workload,
			Nodes:        w.Nodes,
			NumCPU:       rep.NumCPU,
			Gomaxprocs:   rep.Gomaxprocs,
			Workers:      w.Workers,
			MS:           w.EngineMS,
			SequentialMS: w.SequentialMS,
			Speedup:      w.Speedup,
			NodeP50US:    w.NodeP50US,
			NodeP90US:    w.NodeP90US,
			NodeP99US:    w.NodeP99US,
			NodeP999US:   w.NodeP999US,
		})
	}
	// Update rows gate on the median tick (MS = tick_p50_ms); the p99 tail
	// rides along for inspection.
	for _, u := range rep.Update {
		out = append(out, entry{
			TS: ts, SHA: sha,
			Source:     "engine",
			Workload:   u.Workload,
			Nodes:      u.Nodes,
			NumCPU:     rep.NumCPU,
			Gomaxprocs: rep.Gomaxprocs,
			Workers:    u.Workers,
			MS:         u.TickP50MS,
			TickP99MS:  u.TickP99MS,
		})
	}
	return out, nil
}

func skylineEntries(path, sha, ts string) ([]entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep skylineReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var out []entry
	for _, s := range rep.Sizes {
		out = append(out, entry{
			TS: ts, SHA: sha,
			Source:     "skyline",
			Workload:   fmt.Sprintf("compute_into/n=%d", s.N),
			Nodes:      s.N,
			NumCPU:     rep.NumCPU,
			Gomaxprocs: rep.Gomaxprocs,
			Workers:    1,
			MS:         s.ComputeIntoNsOp / 1e6,
		})
	}
	return out, nil
}

// check reads the trajectory and compares, per configuration key, the
// latest entry against the median of all earlier ones. Returns the number
// of regressions. Keys with a single entry have no baseline and pass.
func check(trajectory string, threshold float64, stdout io.Writer) (int, error) {
	f, err := os.Open(trajectory)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	groups := make(map[key][]entry)
	var order []key
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e entry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return 0, fmt.Errorf("%s:%d: %w", trajectory, line, err)
		}
		k := e.key()
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], e)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if line == 0 {
		return 0, fmt.Errorf("%s is empty", trajectory)
	}
	regressions := 0
	for _, k := range order {
		es := groups[k]
		latest := es[len(es)-1]
		if len(es) < 2 {
			fmt.Fprintf(stdout, "SKIP %s/%s nodes=%d %s workers=%d: only one run, no baseline\n",
				k.Source, k.Workload, k.Nodes, machine(k), k.Workers)
			continue
		}
		base := median(es[:len(es)-1])
		verdict := "ok"
		if latest.MS > threshold*base {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(stdout, "%s %s/%s nodes=%d %s workers=%d: latest %.3fms vs median %.3fms (%d prior, %.2fx)\n",
			verdict, k.Source, k.Workload, k.Nodes, machine(k), k.Workers,
			latest.MS, base, len(es)-1, latest.MS/base)
	}
	return regressions, nil
}

// machine renders a key's machine descriptor: legacy lines only carried
// the conflated "cores" field, current ones carry num_cpu + gomaxprocs.
func machine(k key) string {
	if k.NumCPU == 0 && k.Gomaxprocs == 0 {
		return fmt.Sprintf("cores=%d", k.Cores)
	}
	return fmt.Sprintf("num_cpu=%d gomaxprocs=%d", k.NumCPU, k.Gomaxprocs)
}

// median returns the median MS of the entries (callers guarantee at least
// one).
func median(es []entry) float64 {
	ms := make([]float64, len(es))
	for i, e := range es {
		ms[i] = e.MS
	}
	return stats.Quantile(ms, 0.5)
}
