package skyline

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
)

func benchSets(n int) [][]geom.Disk {
	rng := rand.New(rand.NewSource(1))
	sets := make([][]geom.Disk, 16)
	for i := range sets {
		sets[i] = randomLocalSet(rng, n)
	}
	return sets
}

// BenchmarkCompute is the reference number for the disabled-instrumentation
// fast path; BenchmarkComputeInstrumented is the same workload with a live
// registry, quantifying the observability overhead.
func BenchmarkCompute(b *testing.B) {
	for _, n := range []int{16, 128, 1024} {
		sets := benchSets(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compute(sets[i%len(sets)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkComputeInstrumented(b *testing.B) {
	Instrument(obs.NewRegistry())
	defer Instrument(nil)
	for _, n := range []int{16, 128, 1024} {
		sets := benchSets(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compute(sets[i%len(sets)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkComputeInto is the steady-state hot path: a caller-held Scratch
// and a reused destination, as the engine's per-node loop runs it. The
// allocs/op column must read 0.
func BenchmarkComputeInto(b *testing.B) {
	for _, n := range []int{16, 128, 1024} {
		sets := benchSets(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var sc Scratch
			var dst Skyline
			var err error
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if dst, err = sc.ComputeInto(dst, sets[i%len(sets)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSkylineAlgorithms compares the three skyline constructions at a
// fixed size: the divide-and-conquer, the incremental construction and the
// naive oracle, whose O(n² log n) shows immediately.
func BenchmarkSkylineAlgorithms(b *testing.B) {
	const n = 512
	disks := randomLocalSet(rand.New(rand.NewSource(2)), n)
	algs := []struct {
		name string
		fn   func([]geom.Disk) (Skyline, error)
	}{
		{"dnc", Compute},
		{"incremental", computeIncremental},
		{"naive", ComputeNaive},
	}
	for _, alg := range algs {
		b.Run(alg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := alg.fn(disks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationOrder is ablation A2: incremental insertion in the
// decreasing-radius order used by Lemma 8's proof versus a random order.
func BenchmarkAblationOrder(b *testing.B) {
	const n = 512
	rng := rand.New(rand.NewSource(4))
	disks := randomLocalSet(rng, n)
	decreasing := decreasingRadiusOrder(disks)
	random := rng.Perm(n)
	for _, o := range []struct {
		name  string
		order []int
	}{{"decreasing-radius", decreasing}, {"random-order", random}} {
		b.Run(o.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := computeIncrementalOrder(disks, o.order); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInsertDisk measures dynamic skyline maintenance as the engine
// runs it, on a warm Scratch: MoveDiskInto adds one disk to an existing
// skyline that holds no arc of it, ComputeInto recomputes the same set
// from scratch.
func BenchmarkInsertDisk(b *testing.B) {
	const n = 1024
	disks := randomLocalSet(rand.New(rand.NewSource(10)), n+1)
	base, err := Compute(disks[:n])
	if err != nil {
		b.Fatal(err)
	}
	b.Run("insert", func(b *testing.B) {
		var sc Scratch
		var dst Skyline
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = sc.MoveDiskInto(dst, disks, base, n, nil)
		}
	})
	b.Run("recompute", func(b *testing.B) {
		var sc Scratch
		var dst Skyline
		var err error
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if dst, err = sc.ComputeInto(dst, disks); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// skylineBenchEntry is one input-size row in BENCH_skyline.json.
type skylineBenchEntry struct {
	N                   int     `json:"n"`
	MeanArcs            float64 `json:"mean_arcs"`
	ComputeNsOp         int64   `json:"compute_ns_op"`
	ComputeAllocsOp     int64   `json:"compute_allocs_op"`
	ComputeIntoNsOp     int64   `json:"compute_into_ns_op"`
	ComputeIntoAllocsOp int64   `json:"compute_into_allocs_op"`
}

// TestSkylineBenchReport writes the machine-readable skyline kernel
// benchmark used by `make bench-skyline`: ns/op and allocs/op for the
// pooled Compute and for the steady-state ComputeInto, plus the mean arc
// count (the Lemma 8 quantity) per input size. Skipped unless
// SKYLINE_BENCH_OUT names the output file.
func TestSkylineBenchReport(t *testing.T) {
	out := os.Getenv("SKYLINE_BENCH_OUT")
	if out == "" {
		t.Skip("set SKYLINE_BENCH_OUT=<path> to write the skyline benchmark report")
	}
	// num_cpu and gomaxprocs are recorded separately (the machine's core
	// count vs the scheduler's parallelism cap) — see the engine bench
	// report for the rationale.
	report := struct {
		NumCPU     int                 `json:"num_cpu"`
		Gomaxprocs int                 `json:"gomaxprocs"`
		Sizes      []skylineBenchEntry `json:"sizes"`
	}{NumCPU: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0)}
	for _, n := range []int{16, 128, 1024} {
		sets := benchSets(n)
		arcs := 0
		for _, disks := range sets {
			sl, err := Compute(disks)
			if err != nil {
				t.Fatal(err)
			}
			arcs += sl.ArcCount()
		}
		rc := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compute(sets[i%len(sets)]); err != nil {
					b.Fatal(err)
				}
			}
		})
		var sc Scratch
		var dst Skyline
		ri := testing.Benchmark(func(b *testing.B) {
			var err error
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if dst, err = sc.ComputeInto(dst, sets[i%len(sets)]); err != nil {
					b.Fatal(err)
				}
			}
		})
		report.Sizes = append(report.Sizes, skylineBenchEntry{
			N:                   n,
			MeanArcs:            float64(arcs) / float64(len(sets)),
			ComputeNsOp:         rc.NsPerOp(),
			ComputeAllocsOp:     rc.AllocsPerOp(),
			ComputeIntoNsOp:     ri.NsPerOp(),
			ComputeIntoAllocsOp: ri.AllocsPerOp(),
		})
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (num_cpu=%d, gomaxprocs=%d)", out, report.NumCPU, report.Gomaxprocs)
}
