// Command vortexd is the networked crossbar inference service: it
// boots a fleet of identically-trained, individually-fabricated arrays
// (internal/serve.BuildFleet), then serves classification requests on
// one TCP listener speaking both HTTP/JSON and the length-prefixed
// binary hot path, with bounded-queue backpressure and micro-batching
// into the fleet's zero-alloc ReadBatch (see DESIGN.md §14).
//
// Usage:
//
//	vortexd -addr :8372 -scale quick -members 3
//
// Endpoints:
//
//	POST /v1/classify        {"input":[...]} or {"inputs":[[...],...]}
//	GET  /healthz            serving/draining + served count
//	GET  /statz              admission/service counters + fleet census
//	GET  /metrics/prometheus metrics registry, text exposition 0.0.4
//	binary                   open the connection with the magic "VXB1"
//
// Backpressure: a full request queue answers 429 (HTTP, with
// Retry-After) or status 2 (binary, with a retry-after field) instead
// of queueing unboundedly.
//
// Shutdown: SIGTERM or SIGINT starts a graceful drain — the listener
// closes, new admissions get 503/status 3, everything already admitted
// is flushed through the fleet, and the served count is logged. The
// drain self-checks the admitted⇒answered books (accepted must equal
// served + failed + timed-out) and fails the exit when they don't
// balance. Exit codes: 0 clean drain, 1 boot/serve failure, drain
// timeout or accounting mismatch, 2 usage error.
//
// Chaos: -chaos arms the seeded network fault injector
// (internal/chaos) on the listener — e.g. -chaos latency,partial,reset
// -chaos-seed 11 replays the same per-connection fault sequence every
// run. It exists for resilience testing; never arm it in production.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vortex/internal/chaos"
	"vortex/internal/obs"
	"vortex/internal/serve"
)

const (
	exitOK      = 0
	exitFailure = 1
	exitUsage   = 2
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr    = flag.String("addr", ":8372", "listen address")
		scale   = flag.String("scale", "quick", "fleet protocol scale: quick, default or full")
		members = flag.Int("members", 3, "arrays in the serving fleet")
		sigma   = flag.Float64("sigma", 0.3, "lognormal fabrication variation")
		seed    = flag.Uint64("seed", 42, "training and fabrication seed")

		queueDepth  = flag.Int("queue", 256, "bounded request-queue depth (backpressure beyond it)")
		batchMax    = flag.Int("batch", 32, "micro-batch size cap")
		batchLinger = flag.Duration("batch-linger", 200*time.Microsecond, "how long a non-full micro-batch waits for more requests")
		workers     = flag.Int("workers", 2, "batcher goroutines")
		retryAfter  = flag.Duration("retry-after", 250*time.Millisecond, "client back-off advertised on backpressure rejections")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "bound on the graceful drain after SIGTERM/SIGINT")

		readTimeout  = flag.Duration("read-timeout", 10*time.Second, "bound on one request finishing its arrival (anti-slowloris)")
		writeTimeout = flag.Duration("write-timeout", 10*time.Second, "bound on one binary response write")
		idleTimeout  = flag.Duration("idle-timeout", 2*time.Minute, "bound on a connection sitting idle between requests")
		reqTimeout   = flag.Duration("request-timeout", 15*time.Second, "per-request deadline from admission to answer (negative disables)")

		chaosMode = flag.String("chaos", "", "arm the network fault injector: comma list of latency, partial, reset, corrupt, accept-stall, freeze; or all (testing only)")
		chaosSeed = flag.Uint64("chaos-seed", 1, "fault injector seed: the same seed replays the same per-connection fault sequence")

		verbose   = flag.Bool("v", false, "verbose: shorthand for -log-level debug")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn or error")
		logFormat = flag.String("log-format", "text", "log format: text or json")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}
	if *verbose {
		level = slog.LevelDebug
	}
	log, err := obs.NewLogger(os.Stderr, *logFormat, level)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}
	obs.SetLogger(log)

	bootStart := time.Now()
	log.Info("booting fleet", "scale", *scale, "members", *members, "seed", *seed)
	boot, err := serve.BuildFleet(serve.BootConfig{
		Scale:   *scale,
		Members: *members,
		Sigma:   *sigma,
		Seed:    *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vortexd:", err)
		return exitFailure
	}
	log.Info("fleet ready", "inputs", boot.Inputs, "members", *members,
		"accuracy", fmt.Sprintf("%.3f", boot.Accuracy), "elapsed", time.Since(bootStart).Round(time.Millisecond))

	srv, err := serve.New(serve.Config{
		Inputs:         boot.Inputs,
		Engine:         boot.Fleet,
		QueueDepth:     *queueDepth,
		BatchMax:       *batchMax,
		BatchLinger:    *batchLinger,
		Workers:        *workers,
		RetryAfter:     *retryAfter,
		ReadTimeout:    *readTimeout,
		WriteTimeout:   *writeTimeout,
		IdleTimeout:    *idleTimeout,
		RequestTimeout: *reqTimeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vortexd:", err)
		return exitFailure
	}
	var ln net.Listener
	ln, err = net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vortexd:", err)
		return exitFailure
	}
	if *chaosMode != "" && *chaosMode != "none" {
		modes, err := chaos.ParseMode(*chaosMode)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vortexd:", err)
			return exitUsage
		}
		ln = chaos.Wrap(ln, chaos.Config{Seed: *chaosSeed, Modes: modes})
		log.Warn("chaos injector armed — every connection rides the fault stream",
			"modes", modes.String(), "seed", *chaosSeed)
	}
	log.Info("vortexd listening", "addr", ln.Addr().String(), "inputs", boot.Inputs,
		"queue", *queueDepth, "batch", *batchMax, "workers", *workers)

	// SIGTERM/SIGINT starts the drain; a second signal kills the
	// process immediately (default disposition restored).
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	drained := make(chan error, 1)
	go func() {
		sig := <-sigCh
		signal.Stop(sigCh)
		log.Info("drain started", "signal", sig.String(), "in_flight_queue", srv.Stats().QueueDepth)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		drained <- srv.Shutdown(ctx)
	}()

	if err := srv.Serve(ln); err != nil {
		fmt.Fprintln(os.Stderr, "vortexd:", err)
		return exitFailure
	}
	if err := <-drained; err != nil {
		log.Error("drain incomplete", "err", err, "served", srv.Served())
		fmt.Fprintln(os.Stderr, "vortexd: drain incomplete:", err)
		return exitFailure
	}
	st := srv.Stats()
	log.Info("drain complete", "served", st.Served, "accepted", st.Accepted,
		"rejected_queue_full", st.RejectedQueueFull, "rejected_draining", st.RejectedDraining,
		"failed", st.Failed, "timed_out", st.TimedOut)
	// The admitted⇒answered self-check: a completed drain with admitted
	// requests unaccounted for means a response was lost — fail loudly
	// so the chaos smoke (and any operator) sees it.
	if st.Accepted != st.Served+st.Failed+st.TimedOut {
		log.Error("drain accounting mismatch", "accepted", st.Accepted,
			"served", st.Served, "failed", st.Failed, "timed_out", st.TimedOut)
		fmt.Fprintf(os.Stderr, "vortexd: drain accounting mismatch: accepted %d != served %d + failed %d + timed_out %d\n",
			st.Accepted, st.Served, st.Failed, st.TimedOut)
		return exitFailure
	}
	fmt.Printf("vortexd: drained cleanly; served %d requests\n", st.Served)
	return exitOK
}
