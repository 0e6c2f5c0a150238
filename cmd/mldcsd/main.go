// Command mldcsd runs the long-running MLDCS service: it ingests streamed
// mobility deltas over HTTP and serves forwarding-set / skyline queries
// from epoch snapshots, with backpressure on ingest and Prometheus-style
// metrics on the same port. See docs/SERVICE.md for the API.
//
// Usage:
//
//	mldcsd                          # serve on :7440 with defaults
//	mldcsd -addr 127.0.0.1:0        # ephemeral port (printed on stderr)
//	mldcsd -queue 512 -coalesce 32  # deeper ingest buffer, bigger apply groups
//	mldcsd -events trace.jsonl      # JSONL event trace (engine fallbacks, spans)
//
// SIGINT/SIGTERM trigger a graceful drain: ingest is refused (503),
// accepted batches finish applying, in-flight queries complete, then the
// process exits 0.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/httpserve"
	"repro/internal/mldcsd"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], make(chan os.Signal, 1)))
}

// run is main with its exit code and signal source injectable for tests.
func run(args []string, sigs chan os.Signal) int {
	fs := flag.NewFlagSet("mldcsd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":7440", "HTTP listen address")
		queue      = fs.Int("queue", 128, "ingest queue depth (batches); full queue answers 429")
		coalesce   = fs.Int("coalesce", 16, "max queued batches folded into one engine pass")
		maxBatch   = fs.Int("max-batch", 4096, "max deltas per ingest batch")
		maxBody    = fs.Int64("max-body", 1<<20, "max ingest body bytes")
		workers    = fs.Int("workers", 0, "engine workers (0 = GOMAXPROCS)")
		eventsPath = fs.String("events", "", "write a JSONL event trace to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	reg := obs.NewRegistry()
	var sink *obs.EventSink
	var eventsFile *os.File
	if *eventsPath != "" {
		var err error
		eventsFile, err = os.Create(*eventsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mldcsd:", err)
			return 1
		}
		sink = obs.NewEventSink(eventsFile)
	}
	// Engine/skyline/broadcast metrics land in the same registry the
	// service scrapes, so /metrics carries both layers.
	mldcs.Instrument(reg, sink)

	s := mldcsd.New(mldcsd.Config{
		QueueDepth:     *queue,
		Coalesce:       *coalesce,
		MaxBatchDeltas: *maxBatch,
		MaxBodyBytes:   *maxBody,
		EngineWorkers:  *workers,
		Registry:       reg,
	})
	srv, err := httpserve.Start(*addr, s.Handler())
	if err != nil {
		fmt.Fprintln(os.Stderr, "mldcsd:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "mldcsd: serving on %s (/v1/deltas, /v1/forwarding, /v1/skyline, /v1/state, /v1/epoch, /metrics, /healthz)\n",
		srv.Addr())

	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	sig := <-sigs
	fmt.Fprintf(os.Stderr, "mldcsd: %v: draining\n", sig)

	// Graceful drain: stop admitting, apply the backlog, then stop the
	// listener so late queries still read the converged state.
	s.BeginDrain()
	code := 0
	if err := s.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "mldcsd:", err)
		code = 1
	}
	if err := srv.Shutdown(10 * time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "mldcsd: shutdown:", err)
		code = 1
	}
	if sink != nil {
		if err := sink.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "mldcsd: flushing events:", err)
			code = 1
		}
		if err := eventsFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "mldcsd: closing events:", err)
			code = 1
		}
	}
	return code
}
