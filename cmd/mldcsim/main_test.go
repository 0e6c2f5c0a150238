package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro"
)

func TestParseDegrees(t *testing.T) {
	got, err := parseDegrees("4, 8,12.5")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{4, 8, 12.5}
	if len(got) != len(want) {
		t.Fatalf("parseDegrees = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseDegrees = %v, want %v", got, want)
		}
	}
	if _, err := parseDegrees("4,x"); err == nil {
		t.Error("non-numeric degree must fail")
	}
	if _, err := parseDegrees(""); err == nil {
		t.Error("empty string must fail")
	}
}

func TestRunAnalyze(t *testing.T) {
	dir := t.TempDir()
	trace := dir + "/trace.txt"
	data := "# test\n0 0 0 1.5\n1 1 0 1.5\n2 2 0 1.5\n"
	if err := writeFile(trace, data); err != nil {
		t.Fatal(err)
	}
	if err := runAnalyze(trace, "skyline", 0); err != nil {
		t.Fatalf("analyze failed: %v", err)
	}
	if err := runAnalyze(trace, "greedy", 1); err != nil {
		t.Fatalf("analyze with greedy failed: %v", err)
	}
	if err := runAnalyze(trace, "nope", 0); err == nil {
		t.Error("unknown selector must fail")
	}
	if err := runAnalyze(trace, "skyline", 99); err == nil {
		t.Error("bad source must fail")
	}
	if err := runAnalyze(dir+"/missing.txt", "skyline", 0); err == nil {
		t.Error("missing file must fail")
	}
}

func writeFile(path, data string) error {
	return os.WriteFile(path, []byte(data), 0o644)
}

func TestRunDemoSmoke(t *testing.T) {
	if err := runDemo(3, 6, ""); err != nil {
		t.Fatalf("demo failed: %v", err)
	}
	dir := t.TempDir()
	if err := runDemo(3, 6, dir+"/out.svg"); err != nil {
		t.Fatalf("demo with SVG failed: %v", err)
	}
}

// TestRunEngine drives -engine mode at about 400 nodes through 3
// small-move steps with verification on, uniform (contention 0) and
// zipf-skewed (1.2): runEngine checks the Compute and every Apply-driven
// step element for element against the sequential per-node pipeline and
// fails on the first divergence.
func TestRunEngine(t *testing.T) {
	for _, contention := range []float64{0, 1.2} {
		err := runEngine(engineOpts{
			nodes: 400, degree: 10, model: "heterogeneous", workers: 2,
			steps: 3, verify: true, contention: contention, hotspots: 8, seed: 1,
		})
		if err != nil {
			t.Errorf("contention %g: %v", contention, err)
		}
	}
	if err := runEngine(engineOpts{nodes: 400, degree: 10, model: "nope"}); err == nil {
		t.Error("unknown -model must fail")
	}
}

// TestSetupObs drives the observability wiring end to end: instrument,
// run an analysis (which broadcasts), finish, and check both artifacts.
func TestSetupObs(t *testing.T) {
	dir := t.TempDir()
	metricsPath := dir + "/m.json"
	eventsPath := dir + "/trace.jsonl"
	finish, err := setupObs(metricsPath, eventsPath, "")
	if err != nil {
		t.Fatal(err)
	}
	defer mldcs.Instrument(nil, nil)

	trace := dir + "/trace.txt"
	if err := writeFile(trace, "0 0 0 1.5\n1 1 0 1.5\n2 2 0 1.5\n"); err != nil {
		t.Fatal(err)
	}
	if err := runAnalyze(trace, "skyline", 0); err != nil {
		t.Fatal(err)
	}
	finish()

	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatalf("metrics dump missing: %v", err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics dump is not JSON: %v", err)
	}
	if snap.Counters["broadcast_runs_total"] == 0 {
		t.Errorf("broadcast_runs_total = 0 after an analyzed broadcast; counters: %v", snap.Counters)
	}
	if snap.Counters["skyline_compute_total"] == 0 {
		t.Errorf("skyline_compute_total = 0 after a skyline selection; counters: %v", snap.Counters)
	}
	events, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatalf("event trace missing: %v", err)
	}
	if !bytes.Contains(events, []byte(`"type":"broadcast_round"`)) {
		t.Error("event trace has no broadcast_round events")
	}

	// No flags → no-op finish and nothing installed.
	finish2, err := setupObs("", "", "")
	if err != nil {
		t.Fatal(err)
	}
	finish2()
}

// TestDebugServer starts the -pprof debug server on an ephemeral port and
// scrapes every mounted surface: /metrics must be Prometheus text with
// p99 series, /healthz must answer ok, and /debug/vars must be JSON.
func TestDebugServer(t *testing.T) {
	reg := mldcs.NewMetricsRegistry()
	reg.Counter("engine_compute_total").Add(7)
	reg.Timer("engine_update_seconds").Observe(3 * time.Millisecond)

	srv, err := startDebugServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Shutdown(5 * time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"engine_compute_total 7",
		"# TYPE engine_update_seconds_p99 gauge",
		"engine_update_seconds_count 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q\n%s", want, metrics)
		}
	}
	if got := strings.TrimSpace(get("/healthz")); got != "ok" {
		t.Errorf("/healthz = %q, want ok", got)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Errorf("/debug/vars is not JSON: %v", err)
	} else if _, ok := vars["mldcs_metrics"]; !ok {
		t.Error("/debug/vars does not publish mldcs_metrics")
	}

	// Shutting down and restarting within one process must not panic on a
	// duplicate expvar publish.
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	srv2, err := startDebugServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.Shutdown(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}
