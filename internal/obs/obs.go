// Package obs is the repository's observability layer: a lightweight,
// allocation-conscious metrics registry (sharded counters, gauges,
// timers, and log-bucketed quantile histograms), a structured JSONL event
// sink, and a bounded-sampling span tracer.
//
// Two design goals shape the package:
//
//   - Zero cost when disabled. Every metric method is nil-receiver safe,
//     and a nil *Registry hands out nil metric handles, so instrumented
//     packages hold a single atomic pointer to their handle struct and
//     pay one atomic load (plus a predictable branch) per instrumented
//     operation when observability is off.
//
//   - Negligible cost when enabled, at any core count. Counters, timers,
//     and histograms stripe their state across cache-line-padded shards
//     (see shard.go); an update touches only the calling goroutine's
//     shard — one wait-free atomic add with no line shared across cores —
//     and reads merge the shards. Instrumentation can therefore stay
//     always-on under a 16-worker engine pool without serializing it.
//
// No global state lives here; each instrumented package installs handles
// via its own Instrument function (see internal/skyline, internal/engine,
// internal/broadcast, internal/experiments), and the public facade wires
// them together.
//
// Snapshots are deterministic: metric names are emitted in sorted order,
// so two dumps of registries with the same contents are byte-identical.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter striped across
// cache-line-padded shards: Add is a single wait-free atomic add on the
// calling goroutine's shard, and Value merges the shards. Obtain counters
// from a Registry; a nil Counter is a no-op.
type Counter struct {
	cells []cell64
}

func newCounter() *Counter { return &Counter{cells: make([]cell64, shardCount)} }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta to the counter. Wait-free; no-op on a nil receiver.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.cells[shardIndex()].v.Add(delta)
}

// Value returns the current count (0 for a nil receiver). The read merges
// all shards; it is atomic per shard but not a consistent cut under
// concurrent updates.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.cells {
		total += c.cells[i].v.Load()
	}
	return total
}

// Gauge is an atomic float64 instantaneous value. Gauges are set rarely
// (once per pass, not per operation), so they are deliberately a single
// cell: last-write-wins and running-maximum semantics do not merge across
// shards. The zero value reads 0; a nil Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetMax raises the gauge to v if v exceeds the current value (a running
// maximum, e.g. "largest skyline seen"). Lock-free via CAS.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value (0 for a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry is a named collection of metrics. Handles are created on first
// use and shared thereafter; lookups take a mutex, so instrumented code
// should fetch handles once (at Instrument time) and hold them, not look
// them up per operation. A nil *Registry hands out nil handles, making
// every downstream metric operation a no-op.
//
// Metric names must be lower_snake_case compile-time constants; the
// mldcslint obssink analyzer enforces this.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	timers     map[string]*Timer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		timers:     make(map[string]*Timer),
	}
}

// Counter returns the named counter, creating it if needed. Returns nil on
// a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = newCounter()
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed. Returns nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed. Returns
// nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = newHistogram()
		r.histograms[name] = h
	}
	return h
}

// Timer returns the named timer, creating it if needed. Returns nil on a
// nil registry.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.timers[name]
	if t == nil {
		t = &Timer{h: newHistogram()}
		r.timers[name] = t
	}
	return t
}

// HistogramSnapshot is the exported state of one histogram (or timer, in
// seconds): totals plus the latency-percentile summary read off the
// merged log-scale buckets. Quantiles carry the bucketing's relative
// error (≤ ~6%, see histogram.go); Min and Max are exact.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

// Snapshot is a point-in-time export of a registry. Maps marshal with
// sorted keys, so JSON output is deterministic. Timers appear under
// Timers with their histogram in seconds.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Timers     map[string]HistogramSnapshot `json:"timers"`
}

// Snapshot exports the registry's current state, merging every sharded
// metric. Individual shard reads are atomic but the snapshot as a whole
// is not a consistent cut under concurrent updates. Safe on a nil
// registry (returns an empty snapshot).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
		Timers:     make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot()
	}
	for name, t := range r.timers {
		s.Timers[name] = t.h.snapshot()
	}
	return s
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
