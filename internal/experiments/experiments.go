// Package experiments reproduces the paper's evaluation (§5.1): every
// figure is a driver that generates the paper's workloads, runs the
// forwarding-set algorithms, and emits the same series the paper plots.
// docs/DESIGN.md's per-experiment index maps figures to drivers;
// EXPERIMENTS.md records paper-vs-measured results.
package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/stats"
)

// Config controls an experiment run.
type Config struct {
	// Replications is the number of random point sets per data point (the
	// paper uses 200).
	Replications int
	// Seed makes runs reproducible; replication i uses Seed + i.
	Seed int64
	// Workers bounds the number of concurrent replications; ≤ 0 selects
	// GOMAXPROCS.
	Workers int
	// Degrees is the x-axis for the average-size figures (the mean number
	// of 1-hop neighbors). Defaults to 4..24 step 2.
	Degrees []float64
}

// DefaultConfig returns the paper's configuration: 200 replications and
// mean degrees 4..24.
func DefaultConfig() Config {
	return Config{Replications: 200, Seed: 1, Degrees: defaultDegrees()}
}

func defaultDegrees() []float64 {
	var ds []float64
	for d := 4.0; d <= 24; d += 2 {
		ds = append(ds, d)
	}
	return ds
}

func (c Config) normalized() Config {
	if c.Replications <= 0 {
		c.Replications = 200
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if len(c.Degrees) == 0 {
		c.Degrees = defaultDegrees()
	}
	return c
}

// Series is one curve of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
	// Err, when non-nil, holds the standard error of each Y value
	// (populated by the average-size experiments; empty for counts and
	// deterministic series).
	Err []float64 `json:",omitempty"`
}

// Figure is the reproduced form of one of the paper's figures: labeled
// series over a common axis plus free-form notes.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
	// Obs carries the per-run observability summary (wall time, reps/sec,
	// metrics snapshot) when instrumentation is enabled; nil — and absent
	// from JSON — otherwise, so golden outputs are unaffected.
	Obs *RunObs `json:",omitempty"`
}

// Table renders the figure as an aligned text table with one row per
// x-value and one column per series. All series must share the X axis of
// the first series; values missing from shorter series render empty.
func (f Figure) Table() *stats.Table {
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Label)
	}
	t := stats.NewTable(header...)
	if len(f.Series) == 0 {
		return t
	}
	for i, x := range f.Series[0].X {
		cells := []string{fmt.Sprintf("%g", x)}
		for _, s := range f.Series {
			switch {
			case i < len(s.Y) && i < len(s.Err):
				cells = append(cells, fmt.Sprintf("%.3f±%.3f", s.Y[i], s.Err[i]))
			case i < len(s.Y):
				cells = append(cells, fmt.Sprintf("%.3f", s.Y[i]))
			default:
				cells = append(cells, "")
			}
		}
		t.AddRow(cells...)
	}
	return t
}

// String renders the figure title, table, and notes.
func (f Figure) String() string {
	out := fmt.Sprintf("%s — %s\n(y = %s)\n%s", f.ID, f.Title, f.YLabel, f.Table().String())
	for _, n := range f.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// forEachReplication runs fn(rep, rng) for every replication index with a
// bounded worker pool. Each replication gets its own deterministic RNG, so
// results are independent of scheduling. The first error wins.
func forEachReplication(cfg Config, fn func(rep int, rng *rand.Rand) error) error {
	// Counter is nil (a no-op) when instrumentation is off.
	repCounter := activeRegistry().Counter(MetricReplicationsTotal)
	sem := make(chan struct{}, cfg.Workers)
	errCh := make(chan error, 1)
	var wg sync.WaitGroup
	for rep := 0; rep < cfg.Replications; rep++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(rep int) {
			defer wg.Done()
			defer func() { <-sem }()
			defer repCounter.Inc()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(rep)))
			if err := fn(rep, rng); err != nil {
				select {
				case errCh <- err:
				default:
				}
			}
		}(rep)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}
