package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeLines(t *testing.T, path string, entries []entry) {
	t.Helper()
	var buf bytes.Buffer
	for _, e := range entries {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func baseEntry(ms float64) entry {
	return entry{
		Source: "engine", Workload: "uniform-random",
		Nodes: 100000, Cores: 1, Workers: 1, MS: ms,
	}
}

// TestCheckPassesStableHistory: a steady trajectory is not a regression.
func TestCheckPassesStableHistory(t *testing.T) {
	traj := filepath.Join(t.TempDir(), "traj.jsonl")
	writeLines(t, traj, []entry{baseEntry(100), baseEntry(104), baseEntry(98), baseEntry(101)})
	var out, errb bytes.Buffer
	if code := run([]string{"-check", "-trajectory", traj}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "ok engine/uniform-random") {
		t.Errorf("missing ok verdict:\n%s", out.String())
	}
}

// TestCheckFlagsSyntheticRegression: the acceptance criterion — an
// injected slowdown makes benchdiff exit non-zero.
func TestCheckFlagsSyntheticRegression(t *testing.T) {
	traj := filepath.Join(t.TempDir(), "traj.jsonl")
	writeLines(t, traj, []entry{baseEntry(100), baseEntry(102), baseEntry(98), baseEntry(250)})
	var out, errb bytes.Buffer
	if code := run([]string{"-check", "-trajectory", traj}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1 on a 2.5x regression\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION engine/uniform-random") {
		t.Errorf("missing regression verdict:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "1 regression(s)") {
		t.Errorf("stderr = %q", errb.String())
	}
}

// TestCheckThresholdFlag: the threshold is configurable, and a slowdown
// below it passes.
func TestCheckThresholdFlag(t *testing.T) {
	traj := filepath.Join(t.TempDir(), "traj.jsonl")
	writeLines(t, traj, []entry{baseEntry(100), baseEntry(100), baseEntry(140)})
	var out bytes.Buffer
	if code := run([]string{"-check", "-trajectory", traj, "-threshold", "1.5"}, &out, io.Discard); code != 0 {
		t.Fatalf("exit = %d, want 0 at threshold 1.5", code)
	}
	if code := run([]string{"-check", "-trajectory", traj, "-threshold", "1.2"}, &out, io.Discard); code != 1 {
		t.Fatalf("exit = %d, want 1 at threshold 1.2", code)
	}
}

// TestCheckGroupsByConfig: runs from different machine shapes never
// compare — a slow 1-core run after fast 8-core runs is not a regression.
func TestCheckGroupsByConfig(t *testing.T) {
	traj := filepath.Join(t.TempDir(), "traj.jsonl")
	fast := baseEntry(50)
	fast.Cores, fast.Workers = 8, 8
	fast2 := fast
	fast2.MS = 52
	writeLines(t, traj, []entry{fast, fast2, baseEntry(400)})
	var out bytes.Buffer
	if code := run([]string{"-check", "-trajectory", traj}, &out, io.Discard); code != 0 {
		t.Fatalf("exit = %d, want 0 (different cores are different groups)\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "SKIP engine/uniform-random nodes=100000 cores=1") {
		t.Errorf("single-entry group must be skipped:\n%s", out.String())
	}
}

// TestCheckLegacyCoresNeverCompare: old trajectory lines carry the
// conflated "cores" field, current ones carry num_cpu + gomaxprocs; even
// with every other key field equal they must form disjoint groups, so a
// slow first run under the new schema is a fresh baseline, not a
// regression against legacy history.
func TestCheckLegacyCoresNeverCompare(t *testing.T) {
	traj := filepath.Join(t.TempDir(), "traj.jsonl")
	current := baseEntry(400)
	current.Cores = 0
	current.NumCPU, current.Gomaxprocs = 1, 1
	writeLines(t, traj, []entry{baseEntry(50), baseEntry(52), current})
	var out bytes.Buffer
	if code := run([]string{"-check", "-trajectory", traj}, &out, io.Discard); code != 0 {
		t.Fatalf("exit = %d, want 0 (legacy and current lines are different groups)\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "SKIP engine/uniform-random nodes=100000 num_cpu=1 gomaxprocs=1") {
		t.Errorf("current-schema group must be a fresh baseline:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "ok engine/uniform-random nodes=100000 cores=1") {
		t.Errorf("legacy group must keep its cores= label:\n%s", out.String())
	}
}

// TestCheckSingleEntryPasses: a freshly seeded trajectory has no baseline
// and must pass.
func TestCheckSingleEntryPasses(t *testing.T) {
	traj := filepath.Join(t.TempDir(), "traj.jsonl")
	writeLines(t, traj, []entry{baseEntry(100)})
	var out bytes.Buffer
	if code := run([]string{"-check", "-trajectory", traj}, &out, io.Discard); code != 0 {
		t.Fatalf("exit = %d, want 0 for a single-entry trajectory", code)
	}
}

func TestCheckEmptyOrMissing(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-check", "-trajectory", empty}, io.Discard, io.Discard); code != 1 {
		t.Errorf("empty trajectory: exit = %d, want 1", code)
	}
	if code := run([]string{"-check", "-trajectory", filepath.Join(dir, "missing.jsonl")}, io.Discard, io.Discard); code != 1 {
		t.Errorf("missing trajectory: exit = %d, want 1", code)
	}
}

// TestAppendFromReports drives -append over real-schema BENCH reports and
// re-reads the trajectory both as JSON and through -check.
func TestAppendFromReports(t *testing.T) {
	dir := t.TempDir()
	enginePath := filepath.Join(dir, "BENCH_engine.json")
	skyPath := filepath.Join(dir, "BENCH_skyline.json")
	traj := filepath.Join(dir, "results", "traj.jsonl")

	engineJSON := `{
  "nodes": 100000, "num_cpu": 8, "gomaxprocs": 4, "workers": 1,
  "workloads": [
    {"workload": "uniform-random", "nodes": 100000, "workers": 1,
     "sequential_ms": 1768.1, "engine_ms": 1652.1, "speedup": 1.07,
     "cache_hit_ratio": 0, "node_p50_us": 14.1, "node_p99_us": 36.2},
    {"workload": "grid-homogeneous", "nodes": 100000, "workers": 1,
     "sequential_ms": 956.4, "engine_ms": 151.8, "speedup": 6.3,
     "cache_hit_ratio": 0.99}
  ],
  "update": [
    {"workload": "update-repair", "nodes": 100000, "workers": 1,
     "moved_per_tick": 1001, "ticks": 40, "tick_p50_ms": 4.2, "tick_p99_ms": 9.8,
     "speedup_p50": 3.1},
    {"workload": "update-recompute", "nodes": 100000, "workers": 1,
     "moved_per_tick": 1001, "ticks": 40, "tick_p50_ms": 13.0, "tick_p99_ms": 21.5}
  ]
}`
	skyJSON := `{
  "num_cpu": 8, "gomaxprocs": 4,
  "sizes": [
    {"n": 16, "compute_into_ns_op": 17006, "compute_into_allocs_op": 0},
    {"n": 1024, "compute_into_ns_op": 1597902, "compute_into_allocs_op": 0}
  ]
}`
	if err := os.WriteFile(enginePath, []byte(engineJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(skyPath, []byte(skyJSON), 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	code := run([]string{
		"-append", "-engine", enginePath, "-skyline", skyPath,
		"-trajectory", traj, "-sha", "abc1234", "-ts", "2026-08-07T00:00:00Z",
	}, &out, os.Stderr)
	if code != 0 {
		t.Fatalf("append exit = %d", code)
	}
	if !strings.Contains(out.String(), "appended 6 entries") {
		t.Errorf("append output = %q", out.String())
	}

	f, err := os.Open(traj)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var entries []entry
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e entry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("trajectory line not JSON: %v", err)
		}
		entries = append(entries, e)
	}
	if len(entries) != 6 {
		t.Fatalf("trajectory has %d entries, want 6", len(entries))
	}
	if entries[0].Source != "engine" || entries[0].MS != 1652.1 || entries[0].SHA != "abc1234" {
		t.Errorf("engine entry = %+v", entries[0])
	}
	if entries[0].NodeP99US != 36.2 {
		t.Errorf("engine entry p99 = %g, want 36.2", entries[0].NodeP99US)
	}
	if entries[0].NumCPU != 8 || entries[0].Gomaxprocs != 4 || entries[0].Cores != 0 {
		t.Errorf("engine entry machine fields = %+v", entries[0])
	}
	if entries[2].Workload != "update-repair" || entries[2].MS != 4.2 || entries[2].TickP99MS != 9.8 {
		t.Errorf("update entry = %+v", entries[2])
	}
	if entries[3].Workload != "update-recompute" || entries[3].MS != 13.0 {
		t.Errorf("update entry = %+v", entries[3])
	}
	if entries[4].Source != "skyline" || entries[4].Workload != "compute_into/n=16" {
		t.Errorf("skyline entry = %+v", entries[4])
	}
	if entries[4].NumCPU != 8 || entries[4].Gomaxprocs != 4 {
		t.Errorf("skyline entry machine fields = %+v", entries[4])
	}
	if got, want := entries[4].MS, 17006.0/1e6; got != want {
		t.Errorf("skyline ms = %g, want %g", got, want)
	}

	// Append again (a second run) and check: stable history → pass.
	if code := run([]string{
		"-append", "-engine", enginePath, "-skyline", skyPath,
		"-trajectory", traj, "-sha", "def5678",
	}, io.Discard, os.Stderr); code != 0 {
		t.Fatalf("second append exit = %d", code)
	}
	if code := run([]string{"-check", "-trajectory", traj}, io.Discard, io.Discard); code != 0 {
		t.Fatal("check after identical appends must pass")
	}
}

func TestBadUsage(t *testing.T) {
	if code := run([]string{}, io.Discard, io.Discard); code != 2 {
		t.Errorf("no mode: exit = %d, want 2", code)
	}
	if code := run([]string{"-append", "-check"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("both modes: exit = %d, want 2", code)
	}
	if code := run([]string{"-append"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("append without inputs: exit = %d, want 2", code)
	}
}

// readEntries parses every line of a trajectory file.
func readEntries(t *testing.T, path string) []entry {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var entries []entry
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e entry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("trajectory line not JSON: %v", err)
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return entries
}
