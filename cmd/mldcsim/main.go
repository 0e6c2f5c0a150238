// Command mldcsim regenerates the paper's evaluation figures and runs the
// extension experiments from the command line.
//
// Usage:
//
//	mldcsim -exp fig5.1                     # reproduce Figure 5.1 (200 reps)
//	mldcsim -exp fig5.4 -reps 50 -seed 9    # faster, different seed
//	mldcsim -exp all                        # every experiment in sequence
//	mldcsim -exp fig5.2 -csv out.csv        # also write the series as CSV
//	mldcsim -demo -svg skyline.svg          # render a random local set's skyline
//	mldcsim -engine -nodes 100000 -steps 5 -verify  # whole-network engine + mobility
//	mldcsim -engine -contention 1.2 -hotspots 8 -steps 5  # zipf hotspot workload
//	mldcsim -exp fig5.1 -metrics-out m.json # dump engine metrics (see docs/OBSERVABILITY.md)
//	mldcsim -exp all -events trace.jsonl -pprof :6060  # event trace + live profiling
//
// Experiments: fig5.1 fig5.2 fig5.3 fig5.4 fig5.5 fig5.6 scaling
// storm-homogeneous storm-heterogeneous.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/httpserve"
	"repro/internal/obs/expo"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment to run (or \"all\"); see -list")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		reps     = flag.Int("reps", 200, "replications per data point (paper: 200)")
		seed     = flag.Int64("seed", 1, "base random seed")
		workers  = flag.Int("workers", 0, "parallel replications (0 = GOMAXPROCS)")
		degrees  = flag.String("degrees", "", "comma-separated mean degrees (default 4..24 step 2)")
		csvPath  = flag.String("csv", "", "write the figure's series to this CSV file")
		jsonPath = flag.String("json", "", "write the figure as JSON to this file")
		plotPath = flag.String("plot", "", "write the figure as an SVG line chart to this file")
		bars     = flag.String("bars", "", "also render the named series as an ASCII bar chart")
		demo     = flag.Bool("demo", false, "render a random local disk set's skyline instead of an experiment")
		svgPath  = flag.String("svg", "", "SVG output path for -demo")
		demoN    = flag.Int("n", 12, "number of neighbor disks for -demo")
		scenario = flag.String("scenario", "", "run a JSON scenario file instead of -exp")
		report   = flag.String("report", "", "with -scenario: write JSON/CSV/SVG + index.md into this directory")
		analyze  = flag.String("analyze", "", "analyze a deployment trace file (id x y radius per line) instead of -exp")
		selector = flag.String("selector", "skyline", "forwarding algorithm for -analyze")
		source   = flag.Int("source", 0, "source node for -analyze")

		engineMode = flag.Bool("engine", false, "run the whole-network engine demo instead of an experiment")
		engNodes   = flag.Int("nodes", 10000, "with -engine: target network size")
		engDegree  = flag.Float64("degree", 10, "with -engine: target mean 1-hop degree")
		engModel   = flag.String("model", "heterogeneous", "with -engine: radius model (homogeneous|heterogeneous)")
		engSteps   = flag.Int("steps", 0, "with -engine: small-move steps through the incremental Apply path")
		engVerify  = flag.Bool("verify", false, "with -engine: cross-check output against the sequential per-node pipeline")
		engCont    = flag.Float64("contention", 0, "with -engine: zipf contention exponent — skew placement and movers into hotspots (0 = uniform)")
		engHot     = flag.Int("hotspots", 8, "with -engine: hotspot cluster count when -contention > 0")

		metricsOut = flag.String("metrics-out", "", "write the metrics registry as JSON to this file on completion")
		eventsPath = flag.String("events", "", "write a JSONL event trace (broadcast rounds, experiment runs) to this file")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof and expvar (incl. the live metrics registry) on this address, e.g. :6060")
	)
	flag.Parse()

	finishObs, err := setupObs(*metricsOut, *eventsPath, *pprofAddr)
	if err != nil {
		fatal(err)
	}

	if *list {
		for _, id := range mldcs.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}
	if *demo {
		if err := runDemo(*seed, *demoN, *svgPath); err != nil {
			fatal(err)
		}
		finishObs()
		return
	}
	if *analyze != "" {
		if err := runAnalyze(*analyze, *selector, *source); err != nil {
			fatal(err)
		}
		finishObs()
		return
	}
	if *engineMode {
		err := runEngine(engineOpts{
			nodes:      *engNodes,
			degree:     *engDegree,
			model:      *engModel,
			workers:    *workers,
			steps:      *engSteps,
			verify:     *engVerify,
			contention: *engCont,
			hotspots:   *engHot,
			seed:       *seed,
		})
		if err != nil {
			fatal(err)
		}
		finishObs()
		return
	}
	if *scenario != "" {
		data, err := os.ReadFile(*scenario)
		if err != nil {
			fatal(err)
		}
		figs, err := mldcs.RunScenario(data)
		if err != nil {
			fatal(err)
		}
		for _, fig := range figs {
			fmt.Println(fig.String())
		}
		if *report != "" {
			if err := mldcs.WriteReport(*report, figs); err != nil {
				fatal(err)
			}
			fmt.Println("report written to", *report)
		}
		finishObs()
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "usage: mldcsim -exp <id>|all [-reps N] [-seed S] [-degrees 4,8,12] [-csv out.csv]")
		fmt.Fprintln(os.Stderr, "       mldcsim -scenario suite.json")
		fmt.Fprintln(os.Stderr, "       mldcsim -list")
		fmt.Fprintln(os.Stderr, "       mldcsim -demo [-n 12] [-svg out.svg]")
		fmt.Fprintln(os.Stderr, "       mldcsim -engine [-nodes 10000] [-degree 10] [-steps 5] [-verify]")
		os.Exit(2)
	}

	cfg := mldcs.DefaultExperimentConfig()
	cfg.Replications = *reps
	cfg.Seed = *seed
	cfg.Workers = *workers
	if *degrees != "" {
		ds, err := parseDegrees(*degrees)
		if err != nil {
			fatal(err)
		}
		cfg.Degrees = ds
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = mldcs.ExperimentIDs()
	}
	for _, id := range ids {
		fig, err := mldcs.RunExperiment(id, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(fig.String())
		if *bars != "" {
			chart, err := fig.Bars(*bars, 50)
			if err != nil {
				fatal(err)
			}
			fmt.Println(chart)
		}
		if *plotPath != "" {
			path := *plotPath
			if len(ids) > 1 {
				path = strings.TrimSuffix(path, ".svg") + "-" + id + ".svg"
			}
			if err := os.WriteFile(path, []byte(mldcs.RenderFigureSVG(fig)), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
		if *jsonPath != "" {
			path := *jsonPath
			if len(ids) > 1 {
				path = strings.TrimSuffix(path, ".json") + "-" + id + ".json"
			}
			data, err := fig.JSON()
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
		if *csvPath != "" {
			path := *csvPath
			if len(ids) > 1 {
				path = strings.TrimSuffix(path, ".csv") + "-" + id + ".csv"
			}
			if err := os.WriteFile(path, []byte(fig.Table().CSV()), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}
	finishObs()
}

// setupObs wires the observability flags: when any is set it creates a
// registry (and, for -events, a JSONL sink), installs them via
// mldcs.Instrument, and optionally starts the pprof/expvar debug server.
// The returned function flushes the trace and writes the registry dump; it
// must be called once on normal completion.
func setupObs(metricsOut, eventsPath, pprofAddr string) (finish func(), err error) {
	if metricsOut == "" && eventsPath == "" && pprofAddr == "" {
		return func() {}, nil
	}
	reg := mldcs.NewMetricsRegistry()
	var sink *mldcs.EventSink
	var eventsFile, metricsFile *os.File
	if eventsPath != "" {
		eventsFile, err = os.Create(eventsPath)
		if err != nil {
			return nil, err
		}
		sink = mldcs.NewEventSink(eventsFile)
	}
	if metricsOut != "" {
		// Open up front so a bad path fails before the run, not after it.
		metricsFile, err = os.Create(metricsOut)
		if err != nil {
			return nil, err
		}
	}
	mldcs.Instrument(reg, sink)
	var srv *httpserve.Server
	if pprofAddr != "" {
		srv, err = startDebugServer(pprofAddr, reg)
		if err != nil {
			return nil, err
		}
	}
	return func() {
		if srv != nil {
			if err := srv.Shutdown(5 * time.Second); err != nil {
				fmt.Fprintln(os.Stderr, "mldcsim: shutting down debug server:", err)
			}
		}
		if sink != nil {
			if err := sink.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "mldcsim: flushing event trace:", err)
			}
			if err := eventsFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "mldcsim: closing event trace:", err)
			}
			fmt.Printf("wrote %s\n", eventsPath)
		}
		if metricsFile != nil {
			if err := reg.WriteJSON(metricsFile); err != nil {
				fatal(err)
			}
			if err := metricsFile.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", metricsOut)
		}
	}, nil
}

// startDebugServer serves the debug surface on its own mux and server —
// never the defaults, which would leak the handlers to any library that
// also uses them and could not be shut down. Routes: /debug/pprof/*,
// /debug/vars (expvar, incl. the live registry under mldcs_metrics),
// /metrics (Prometheus text exposition), and /healthz. Listen/shutdown
// semantics come from internal/httpserve (shared with mldcsd): the bind
// is synchronous so a bad address fails before the run, and the caller
// shuts the server down via (*httpserve.Server).Shutdown.
func startDebugServer(addr string, reg *mldcs.MetricsRegistry) (*httpserve.Server, error) {
	// Publish the live registry for /debug/vars readers. expvar panics on
	// duplicate names, so re-runs inside one process (tests) must skip it.
	if expvar.Get("mldcs_metrics") == nil {
		expvar.Publish("mldcs_metrics", expvar.Func(func() any { return reg.Snapshot() }))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	expo.Mount(mux, reg)

	srv, err := httpserve.Start(addr, mux)
	if err != nil {
		return nil, fmt.Errorf("debug server: %w", err)
	}
	fmt.Fprintf(os.Stderr, "mldcsim: serving debug endpoints on %s (/debug/pprof, /debug/vars, /metrics, /healthz)\n",
		srv.Addr())
	return srv, nil
}

func runDemo(seed int64, n int, svgPath string) error {
	rng := rand.New(rand.NewSource(seed))
	hub := mldcs.NewDisk(0, 0, 1+rng.Float64())
	neighbors := make([]mldcs.Disk, n)
	for i := range neighbors {
		r := 1 + rng.Float64()
		maxDist := r
		if hub.R < maxDist {
			maxDist = hub.R
		}
		dist := rng.Float64() * maxDist * 0.999
		theta := rng.Float64() * 2 * math.Pi
		neighbors[i] = mldcs.Disk{
			C: mldcs.Pt(dist*math.Cos(theta), dist*math.Sin(theta)),
			R: r,
		}
	}
	cover, err := mldcs.CoverSet(hub, neighbors)
	if err != nil {
		return err
	}
	fwd, err := mldcs.ForwardingSet(hub, neighbors)
	if err != nil {
		return err
	}
	fmt.Printf("local set: hub radius %.3f, %d neighbors\n", hub.R, n)
	fmt.Printf("minimum local disk cover set (0 = hub): %v\n", cover)
	fmt.Printf("forwarding set (neighbor indices): %v — %d of %d neighbors relay\n",
		fwd, len(fwd), n)
	if svgPath != "" {
		all := append([]mldcs.Disk{hub}, neighbors...)
		sl, err := mldcs.ComputeSkyline(hub.C, all)
		if err != nil {
			return err
		}
		svg := mldcs.RenderLocalSetSVG(hub.C, all, sl)
		if err := os.WriteFile(svgPath, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", svgPath)
	}
	return nil
}

// runAnalyze loads a deployment trace and reports the chosen selector's
// forwarding set and broadcast metrics from the given source node.
func runAnalyze(path, selName string, source int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	nodes, err := mldcs.ReadDeployment(f)
	if err != nil {
		return err
	}
	g, err := mldcs.BuildNetwork(nodes, mldcs.Bidirectional)
	if err != nil {
		return err
	}
	if source < 0 || source >= g.Len() {
		return fmt.Errorf("source %d out of range [0, %d)", source, g.Len())
	}
	sel, err := mldcs.SelectorByName(selName)
	if err != nil {
		return err
	}
	set, err := mldcs.SelectForwarders(g, source, sel)
	if err != nil {
		return err
	}
	fmt.Printf("trace: %d nodes; source %d has %d neighbors and %d 2-hop neighbors\n",
		g.Len(), source, g.Degree(source), len(g.TwoHop(source)))
	fmt.Printf("%s forwarding set (%d nodes): %v\n", selName, len(set), set)
	fmt.Printf("2-hop coverage: %.1f%%", mldcs.TwoHopCoverage(g, source, set)*100)
	if missed := mldcs.UncoveredTwoHop(g, source, set); len(missed) > 0 {
		fmt.Printf(" (misses %v)", missed)
	}
	fmt.Println()
	res, err := mldcs.Broadcast(g, source, sel)
	if err != nil {
		return err
	}
	fmt.Printf("broadcast: %d transmissions deliver %d of %d reachable nodes (max hop %d)\n",
		res.Transmissions, res.Delivered, res.Reachable, res.MaxHop)
	return nil
}

func parseDegrees(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		d, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad degree %q: %v", part, err)
		}
		out = append(out, d)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mldcsim:", err)
	os.Exit(1)
}
