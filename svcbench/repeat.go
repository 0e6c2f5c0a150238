package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// runRecord is one line of runs.jsonl: a run's identity, exit code, and
// the report and result lines it printed.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Exit     int     `json:"exit"`
	Report   *report `json:"report,omitempty"`
	Result   *result `json:"result,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the repeat tool reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// summary is one metric's distribution over a set of runs, with the
// quartiles Python's statistics.quantiles(values, n=4) gives.
type summary struct {
	Unit   string  `json:"unit,omitempty"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3 − Q1) / Median.
	Spread float64 `json:"spread"`
}

// shift compares a metric's median with a baseline analysis's median.
type shift struct {
	Base  float64 `json:"base_median"`
	Worse float64 `json:"worse_by"` // share of the base median, positive = worse
	Bound float64 `json:"bound"`
	OK    bool    `json:"ok"`
}

type workloadAnalysis struct {
	Runs       int                `json:"runs"`
	TracedRuns int                `json:"traced_runs"`
	Failed     int                `json:"failed_runs"`
	EndToEnd   map[string]summary `json:"end_to_end"`
	Validity   map[string]summary `json:"validity"`
	PerLayer   map[string]summary `json:"per_layer,omitempty"`
	SelfMS     map[string]summary `json:"self_ms,omitempty"`
	// TracingOverhead is the traced runs' end-to-end median minus the
	// untraced runs' median, per metric.
	TracingOverhead map[string]float64 `json:"tracing_overhead,omitempty"`
	VsBaseline      map[string]shift   `json:"vs_baseline,omitempty"`
}

// runRepeat is the repeat-and-analyze mode: it runs each workload k times
// (seeds seed..seed+k−1) plus any traced runs, keeps every run's raw
// output in runs.jsonl, and writes analysis.json and analysis.md. The
// window length, the default workloads and the bounds come from the
// BENCHMARK.json in the working directory.
func runRepeat(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("svcbench repeat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wls      = fs.String("workloads", "", "comma-separated workloads to run (default: those of BENCHMARK.json)")
		k        = fs.Int("k", 10, "untraced runs per workload, one seed each")
		traced   = fs.Int("traced", 0, "traced runs per workload, on the first seeds")
		seed     = fs.Int64("seed", 1, "first seed")
		out      = fs.String("out", filepath.Join(".bench_build", "repeat"), "output directory")
		runs     = fs.String("runs", "", "analyze this runs.jsonl instead of running")
		baseline = fs.String("baseline", "", "analysis.json of an earlier set of runs to compare medians with")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var spec benchSpec
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "svcbench repeat: run from the repository root:", err)
		return 1
	}
	names := strings.Split(*wls, ",")
	if *wls == "" {
		names = names[:0]
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "svcbench repeat:", err)
		return 1
	}
	var recs []runRecord
	if *runs != "" {
		recs, err = readRuns(*runs)
	} else {
		recs, err = repeatRuns(names, *k, *traced, *seed, spec.RunSeconds, filepath.Join(*out, "runs.jsonl"), stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "svcbench repeat:", err)
		return 1
	}
	an := analyze(recs)
	if *baseline != "" {
		var base map[string]workloadAnalysis
		data, err := os.ReadFile(*baseline)
		if err == nil {
			err = json.Unmarshal(data, &base)
		}
		if err != nil {
			fmt.Fprintln(stderr, "svcbench repeat: baseline:", err)
			return 1
		}
		compare(an, base, spec)
	}
	data, err = json.MarshalIndent(an, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(*out, "analysis.json"), append(data, '\n'), 0o644)
	}
	if err == nil {
		err = os.WriteFile(filepath.Join(*out, "analysis.md"), []byte(markdown(an, spec)), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "svcbench repeat:", err)
		return 1
	}
	fmt.Fprint(stdout, markdown(an, spec))
	return 0
}

// repeatRuns runs this executable once per (workload, seed, trace) and
// appends each run's record to path as it finishes.
func repeatRuns(wls []string, k, traced int, seed int64, seconds int, path string, stderr io.Writer) ([]runRecord, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []runRecord
	for _, wl := range wls {
		if _, err := findWorkload(wl); err != nil {
			return nil, err
		}
		for i := 0; i < k+traced; i++ {
			rec := runRecord{Workload: wl, Seed: seed + int64(i%k), Trace: i >= k}
			trace := "0"
			if rec.Trace {
				trace = "1"
			}
			cmd := exec.Command(self, "--workload", wl, "--seed", strconv.FormatInt(rec.Seed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", trace)
			var so bytes.Buffer
			cmd.Stdout, cmd.Stderr = &so, stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if errors.As(err, &exit) {
				rec.Exit = exit.ExitCode()
			} else if err != nil {
				return nil, err
			}
			rec.Report, rec.Result = parseRunOutput(so.Bytes())
			line, err := json.Marshal(rec)
			if err != nil {
				return nil, err
			}
			if _, err := f.Write(append(line, '\n')); err != nil {
				return nil, err
			}
			fmt.Fprintf(stderr, "svcbench repeat: %s seed %d trace %s: exit %d\n", wl, rec.Seed, trace, rec.Exit)
			recs = append(recs, rec)
		}
	}
	return recs, f.Close()
}

// parseRunOutput picks the report and result lines out of a run's stdout.
func parseRunOutput(out []byte) (*report, *result) {
	var rep *report
	var res *result
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		line := sc.Bytes()
		var r struct {
			Report *report `json:"report"`
		}
		if bytes.HasPrefix(line, []byte(`{"report":`)) && json.Unmarshal(line, &r) == nil {
			rep = r.Report
		}
		if bytes.HasPrefix(line, []byte(`{"correct":`)) {
			var x result
			if json.Unmarshal(line, &x) == nil {
				res = &x
			}
		}
	}
	return rep, res
}

func readRuns(path string) ([]runRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []runRecord
	for i, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var r runRecord
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

func summarize(xs []float64, unit string) summary {
	s := summary{Unit: unit, N: len(xs)}
	if len(xs) == 1 {
		s.Median, s.Q1, s.Q3 = xs[0], xs[0], xs[0]
	}
	if q1, q2, q3, err := quartiles(xs); err == nil {
		s.Median, s.Q1, s.Q3 = q2, q1, q3
	}
	if s.Median != 0 {
		s.Spread = (s.Q3 - s.Q1) / s.Median
	}
	return s
}

func summarizeAll(vals map[string][]float64, units map[string]string) map[string]summary {
	out := make(map[string]summary, len(vals))
	for name, xs := range vals {
		out[name] = summarize(xs, units[name])
	}
	return out
}

func analyze(recs []runRecord) map[string]workloadAnalysis {
	type acc struct {
		e2e, traced, layer, self, valid map[string][]float64
		units                           map[string]string
		runs, tracedRuns, failed        int
	}
	byWL := make(map[string]*acc)
	for _, r := range recs {
		a := byWL[r.Workload]
		if a == nil {
			a = &acc{e2e: map[string][]float64{}, traced: map[string][]float64{}, layer: map[string][]float64{},
				self: map[string][]float64{}, valid: map[string][]float64{}, units: map[string]string{}}
			byWL[r.Workload] = a
		}
		if r.Exit != 0 || r.Result == nil || r.Report == nil || !r.Result.Correct {
			a.failed++
			continue
		}
		rep := r.Report
		e2e := a.e2e
		if r.Trace {
			a.tracedRuns++
			e2e = a.traced
			for name, m := range rep.PerLayer {
				a.layer[name] = append(a.layer[name], m.Value)
				a.units[name] = m.Unit
			}
			for name, v := range rep.SelfMS {
				a.self[name] = append(a.self[name], v)
			}
		} else {
			a.runs++
			v := rep.Validity
			for name, x := range map[string]float64{
				"steal_pct": v.StealPct, "applier_busy_pct": v.ApplierBusyPct,
				"ingest_late_ms_p99": v.IngestLateMSP99, "query_late_ms_p99": v.QueryLateMSP99,
				"missed_epochs": float64(v.MissedEpochs), "host_ref_ms": v.HostRefMS, "host_ref_end_ms": v.HostRefEndMS,
			} {
				a.valid[name] = append(a.valid[name], x)
			}
		}
		for name, m := range rep.EndToEnd {
			e2e[name] = append(e2e[name], m.Value)
			a.units[name] = m.Unit
		}
	}
	out := make(map[string]workloadAnalysis, len(byWL))
	for wl, a := range byWL {
		wa := workloadAnalysis{
			Runs: a.runs, TracedRuns: a.tracedRuns, Failed: a.failed,
			EndToEnd: summarizeAll(a.e2e, a.units),
			Validity: summarizeAll(a.valid, nil),
		}
		if a.tracedRuns > 0 {
			wa.PerLayer = summarizeAll(a.layer, a.units)
			wa.SelfMS = summarizeAll(a.self, nil)
			wa.TracingOverhead = make(map[string]float64)
			for name, xs := range a.traced {
				if base, ok := wa.EndToEnd[name]; ok {
					wa.TracingOverhead[name] = summarize(xs, "").Median - base.Median
				}
			}
		}
		out[wl] = wa
	}
	return out
}

// compare records, per workload and end-to-end metric, how much worse
// this set's median is than the baseline's, against the metric's bound.
func compare(an, base map[string]workloadAnalysis, spec benchSpec) {
	for wl, wa := range an {
		bw, ok := base[wl]
		if !ok {
			continue
		}
		wa.VsBaseline = make(map[string]shift)
		for _, m := range spec.EndToEnd {
			cur, ok1 := wa.EndToEnd[m.Name]
			old, ok2 := bw.EndToEnd[m.Name]
			if !ok1 || !ok2 || old.Median == 0 {
				continue
			}
			worse := (cur.Median - old.Median) / old.Median
			if m.Better == "higher" {
				worse = -worse
			}
			wa.VsBaseline[m.Name] = shift{Base: old.Median, Worse: worse, Bound: m.Bound, OK: worse <= m.Bound}
		}
		an[wl] = wa
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// markdown renders the analysis as a short report. A spread is marked
// "steady" when it is under a third of the metric's bound.
func markdown(an map[string]workloadAnalysis, spec benchSpec) string {
	bounds := make(map[string]float64)
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	var b strings.Builder
	for _, wl := range sortedKeys(an) {
		wa := an[wl]
		fmt.Fprintf(&b, "## %s\n\n%d runs, %d traced, %d failed.\n\n", wl, wa.Runs, wa.TracedRuns, wa.Failed)
		b.WriteString("| metric | unit | median | q1 | q3 | IQR/median | bound | steady |")
		if wa.VsBaseline != nil {
			b.WriteString(" worse than baseline | within bound |")
		}
		if wa.TracingOverhead != nil {
			b.WriteString(" tracing overhead |")
		}
		b.WriteString("\n|---|---|---|---|---|---|---|---|")
		if wa.VsBaseline != nil {
			b.WriteString("---|---|")
		}
		if wa.TracingOverhead != nil {
			b.WriteString("---|")
		}
		b.WriteString("\n")
		for _, name := range sortedKeys(wa.EndToEnd) {
			s := wa.EndToEnd[name]
			steady := "-"
			if bd, ok := bounds[name]; ok {
				steady = strconv.FormatBool(s.Spread < bd/3)
			}
			fmt.Fprintf(&b, "| %s | %s | %.4g | %.4g | %.4g | %.3f | %g | %s |", name, s.Unit, s.Median, s.Q1, s.Q3, s.Spread, bounds[name], steady)
			if wa.VsBaseline != nil {
				sh := wa.VsBaseline[name]
				fmt.Fprintf(&b, " %+.3f | %v |", sh.Worse, sh.OK)
			}
			if wa.TracingOverhead != nil {
				fmt.Fprintf(&b, " %+.4g |", wa.TracingOverhead[name])
			}
			b.WriteString("\n")
		}
		b.WriteString("\nValidity (bench.* diagnostics), untraced runs:\n\n| diagnostic | median | q1 | q3 |\n|---|---|---|---|\n")
		for _, name := range sortedKeys(wa.Validity) {
			s := wa.Validity[name]
			fmt.Fprintf(&b, "| %s | %.4g | %.4g | %.4g |\n", name, s.Median, s.Q1, s.Q3)
		}
		if wa.PerLayer != nil {
			b.WriteString("\nPer-layer metrics, traced runs:\n\n| metric | unit | median | q1 | q3 |\n|---|---|---|---|---|\n")
			for _, name := range sortedKeys(wa.PerLayer) {
				s := wa.PerLayer[name]
				fmt.Fprintf(&b, "| %s | %s | %.4g | %.4g | %.4g |\n", name, s.Unit, s.Median, s.Q1, s.Q3)
			}
			b.WriteString("\nSelf time per span name, traced runs (ms per run):\n\n| span | median | q1 | q3 |\n|---|---|---|---|\n")
			for _, name := range sortedKeys(wa.SelfMS) {
				s := wa.SelfMS[name]
				fmt.Fprintf(&b, "| %s | %.4g | %.4g | %.4g |\n", name, s.Median, s.Q1, s.Q3)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
