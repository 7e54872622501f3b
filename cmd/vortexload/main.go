// Command vortexload drives a vortexd server to saturation and reports
// latency quantiles and throughput. Each worker goroutine runs a
// closed loop over the scale's held-out digit set (the same set the
// server was evaluated on, so the report includes real accuracy),
// speaking either the HTTP/JSON endpoint or the binary hot path;
// backpressure rejections are honored by sleeping the advertised
// Retry-After before retrying.
//
// Usage:
//
//	vortexload -addr 127.0.0.1:8372 -scale quick -n 10000 -c 8 -proto binary
//	vortexload -selfserve -scale quick -n 40000 -c 16 -o load.json
//	vortexload -addr 127.0.0.1:8372 -retries 4 -hedge 50ms -req-timeout 2s
//
// Resilience: -retries arms the binary workers' retry policy (capped
// jittered exponential backoff behind a retry budget), -hedge fires a
// duplicate request on a second connection when the first stalls, and
// -req-timeout bounds one attempt. The report counts what the
// machinery did: retries, hedges, hedge wins and timeouts.
//
// -selfserve boots a fleet and a serve.Server in-process on a loopback
// listener, drives it over real TCP, then drains it: one command, no
// second process. The repository benchmark (benchmark/README.md) is
// the measured serving workload; vortexload is the interactive and
// smoke-test driver.
//
// The -o report records p50/p90/p99/p999/max latency, qps, accuracy,
// rejection counts and (when reachable) the server's /statz snapshot.
// Exit codes: 0 success, 1 failure (unreachable server, all requests
// errored), 2 usage error.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"vortex/internal/dataset"
	"vortex/internal/serve"
)

const (
	exitOK      = 0
	exitFailure = 1
	exitUsage   = 2
)

// workerStats accumulates one worker's closed-loop results.
type workerStats struct {
	latencies []float64 // microseconds, answered requests only
	answered  int64
	correct   int64
	degraded  int64
	rejected  int64 // backpressure rejections (retried)
	errors    int64
	client    serve.ClientStats // binary resilience counters
}

// clientOpts carries the resilience flags into the binary workers.
type clientOpts struct {
	retries    int
	backoff    time.Duration
	hedge      time.Duration
	reqTimeout time.Duration
}

// latencySummary is the quantile block of the report.
type latencySummary struct {
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Mean  float64 `json:"mean"`
	Max   float64 `json:"max"`
	Count int     `json:"count"`
}

// report is the -o JSON schema.
type report struct {
	Date        string         `json:"date"`
	GoVersion   string         `json:"go_version"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	Addr        string         `json:"addr"`
	SelfServe   bool           `json:"selfserve"`
	Proto       string         `json:"proto"`
	Scale       string         `json:"scale"`
	Concurrency int            `json:"concurrency"`
	Requests    int64          `json:"requests"`
	Answered    int64          `json:"answered"`
	Rejected    int64          `json:"rejected_backpressure"`
	Errors      int64          `json:"errors"`
	Degraded    int64          `json:"degraded"`
	Retries     int64          `json:"retries,omitempty"`
	Hedges      int64          `json:"hedges,omitempty"`
	HedgeWins   int64          `json:"hedge_wins,omitempty"`
	Timeouts    int64          `json:"timeouts,omitempty"`
	ElapsedSec  float64        `json:"elapsed_sec"`
	QPS         float64        `json:"qps"`
	LatencyUs   latencySummary `json:"latency_us"`
	Accuracy    float64        `json:"accuracy"`
	Server      *serve.Stats   `json:"server,omitempty"`
	ServedDrain int64          `json:"server_served_at_drain,omitempty"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr      = flag.String("addr", "127.0.0.1:8372", "server address (host:port)")
		selfserve = flag.Bool("selfserve", false, "boot the fleet and server in-process on a loopback listener")
		scale     = flag.String("scale", "quick", "input protocol scale: quick, default or full (must match the server)")
		seed      = flag.Uint64("seed", 42, "input-set seed (must match the server)")
		n         = flag.Int64("n", 10000, "total requests to send (spread over workers)")
		conc      = flag.Int("c", 8, "concurrent closed-loop workers (connections)")
		proto     = flag.String("proto", "binary", "protocol: json, binary or mixed (workers alternate)")
		connWait  = flag.Duration("connect-timeout", 15*time.Second, "how long to wait for the server to accept connections")
		out       = flag.String("o", "", "write the JSON report here (e.g. load.json)")

		retries      = flag.Int("retries", 1, "binary: max attempts per request (1 = no retries)")
		retryBackoff = flag.Duration("retry-backoff", 10*time.Millisecond, "binary: first retry's backoff ceiling (doubles, jittered)")
		hedge        = flag.Duration("hedge", 0, "binary: fire a duplicate request on a second connection after this stall (0 = off)")
		reqTimeout   = flag.Duration("req-timeout", 0, "binary: bound one attempt's round-trip (0 = unbounded)")

		members = flag.Int("members", 3, "selfserve: arrays in the fleet")
		queueD  = flag.Int("queue", 256, "selfserve: request-queue depth")
		batch   = flag.Int("batch", 32, "selfserve: micro-batch size cap")
		workers = flag.Int("workers", 2, "selfserve: batcher goroutines")
	)
	flag.Parse()
	if *conc < 1 || *n < 1 {
		fmt.Fprintln(os.Stderr, "vortexload: -c and -n must be positive")
		return exitUsage
	}
	switch *proto {
	case "json", "binary", "mixed":
	default:
		fmt.Fprintf(os.Stderr, "vortexload: unknown -proto %q (want json, binary or mixed)\n", *proto)
		return exitUsage
	}

	set, err := serve.LoadSet(*scale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vortexload:", err)
		return exitUsage
	}

	var srv *serve.Server
	target := *addr
	if *selfserve {
		boot, err := serve.BuildFleet(serve.BootConfig{Scale: *scale, Members: *members, Seed: *seed})
		if err != nil {
			fmt.Fprintln(os.Stderr, "vortexload:", err)
			return exitFailure
		}
		srv, err = serve.New(serve.Config{
			Inputs:     boot.Inputs,
			Engine:     boot.Fleet,
			QueueDepth: *queueD,
			BatchMax:   *batch,
			Workers:    *workers,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "vortexload:", err)
			return exitFailure
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, "vortexload:", err)
			return exitFailure
		}
		go srv.Serve(ln)
		target = ln.Addr().String()
		fmt.Fprintf(os.Stderr, "vortexload: selfserve fleet up on %s (inputs=%d, accuracy=%.3f)\n",
			target, boot.Inputs, boot.Accuracy)
	}

	if err := waitReady(target, *connWait); err != nil {
		fmt.Fprintln(os.Stderr, "vortexload:", err)
		return exitFailure
	}

	// The closed loop: workers split the request budget and hammer
	// until it is spent.
	perWorker := splitBudget(*n, *conc)
	stats := make([]workerStats, *conc)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *conc; w++ {
		p := *proto
		if p == "mixed" {
			if w%2 == 0 {
				p = "binary"
			} else {
				p = "json"
			}
		}
		wg.Add(1)
		go func(w int, p string, budget int64) {
			defer wg.Done()
			runWorker(&stats[w], p, target, set, w, budget, clientOpts{
				retries: *retries, backoff: *retryBackoff,
				hedge: *hedge, reqTimeout: *reqTimeout,
			})
		}(w, p, perWorker[w])
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := buildReport(stats, elapsed, *proto, *scale, target, *conc, *n, *selfserve)
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "vortexload: selfserve drain:", err)
			return exitFailure
		}
		st := srv.Stats()
		rep.Server = &st
		rep.ServedDrain = srv.Served()
	} else if st, err := fetchStats(target); err == nil {
		rep.Server = st
	}

	fmt.Printf("vortexload: %d answered / %d sent in %.2fs  qps=%.0f  p50=%.0fµs p99=%.0fµs p999=%.0fµs  acc=%.3f  rejected=%d errors=%d\n",
		rep.Answered, rep.Requests, rep.ElapsedSec, rep.QPS,
		rep.LatencyUs.P50, rep.LatencyUs.P99, rep.LatencyUs.P999, rep.Accuracy, rep.Rejected, rep.Errors)
	if rep.Retries+rep.Hedges+rep.Timeouts > 0 {
		fmt.Printf("vortexload: resilience: retries=%d hedges=%d hedge_wins=%d timeouts=%d\n",
			rep.Retries, rep.Hedges, rep.HedgeWins, rep.Timeouts)
	}
	if rep.Answered == 0 {
		fmt.Fprintln(os.Stderr, "vortexload: no request was answered")
		return exitFailure
	}
	if *out != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "vortexload:", err)
			return exitFailure
		}
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "vortexload:", err)
			return exitFailure
		}
		fmt.Fprintf(os.Stderr, "vortexload: report written to %s\n", *out)
	}
	return exitOK
}

// splitBudget spreads n requests over c workers, front-loading the
// remainder.
func splitBudget(n int64, c int) []int64 {
	out := make([]int64, c)
	base := n / int64(c)
	rem := n % int64(c)
	for i := range out {
		out[i] = base
		if int64(i) < rem {
			out[i]++
		}
	}
	return out
}

// waitReady polls the server's /healthz until it answers or the
// timeout expires — vortexd spends its first moments training the
// fleet, so the load generator must outwait the boot.
func waitReady(addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: 2 * time.Second}
	var last error
	for time.Now().Before(deadline) {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			last = fmt.Errorf("healthz status %d", resp.StatusCode)
		} else {
			last = err
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("server at %s not ready after %v: %w", addr, timeout, last)
}

// runWorker runs one closed loop: send, measure, honor backpressure,
// repeat until the budget is spent. Worker w starts at a staggered
// offset of the sample set so concurrent workers don't lockstep. The
// binary path rides a ResilientClient — retries, budget and hedging
// per opts — and its resilience counters land in st.client.
func runWorker(st *workerStats, proto, addr string, set *dataset.Set, w int, budget int64, opts clientOpts) {
	st.latencies = make([]float64, 0, budget)
	httpClient := &http.Client{Timeout: 30 * time.Second}
	var rc *serve.ResilientClient
	if proto == "binary" {
		var err error
		rc, err = serve.NewResilientClient(serve.ClientConfig{
			Addr:           addr,
			DialTimeout:    5 * time.Second,
			RequestTimeout: opts.reqTimeout,
			HedgeDelay:     opts.hedge,
			Retry: serve.RetryPolicy{
				MaxAttempts: opts.retries,
				BaseBackoff: opts.backoff,
				Seed:        uint64(w + 1),
			},
		})
		if err != nil {
			st.errors += budget
			return
		}
		defer func() {
			st.client = rc.Stats()
			rc.Close()
		}()
	}
	idx := (w * 37) % set.Len()
	for sent := int64(0); sent < budget; {
		s := set.Samples[idx]
		idx = (idx + 1) % set.Len()
		var (
			cls      serve.Classification
			err      error
			retryAft time.Duration
			rejected bool
		)
		t0 := time.Now()
		if proto == "binary" {
			cls, err = rc.Classify(s.Pixels)
			var rerr *serve.RemoteError
			if errors.As(err, &rerr) && rerr.Overloaded() {
				// The retry policy gave up on (or never retried) a
				// backpressure rejection: honor the advertised back-off
				// without spending budget, like the JSON path.
				rejected, retryAft = true, rerr.RetryAfter
			}
		} else {
			cls, rejected, retryAft, err = classifyJSON(httpClient, addr, s.Pixels)
		}
		lat := time.Since(t0)
		switch {
		case rejected:
			st.rejected++
			if retryAft <= 0 {
				retryAft = 50 * time.Millisecond
			}
			time.Sleep(retryAft)
			continue // retry the same sample; budget not spent
		case err != nil:
			st.errors++
			sent++
		default:
			st.answered++
			sent++
			st.latencies = append(st.latencies, float64(lat.Microseconds()))
			if cls.Class == s.Label {
				st.correct++
			}
			if cls.Degraded {
				st.degraded++
			}
		}
	}
}

// classifyJSON sends one vector through POST /v1/classify, reporting
// backpressure (429/503) with the advertised retry delay.
func classifyJSON(client *http.Client, addr string, x []float64) (serve.Classification, bool, time.Duration, error) {
	body, err := json.Marshal(serve.ClassifyRequest{Input: x})
	if err != nil {
		return serve.Classification{}, false, 0, err
	}
	resp, err := client.Post("http://"+addr+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.Classification{}, false, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		var er serve.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&er)
		return serve.Classification{}, true, time.Duration(er.RetryAfterMs) * time.Millisecond, nil
	}
	if resp.StatusCode != http.StatusOK {
		var er serve.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&er)
		return serve.Classification{}, false, 0, fmt.Errorf("status %d: %s", resp.StatusCode, er.Error)
	}
	var cr serve.ClassifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		return serve.Classification{}, false, 0, err
	}
	if cr.Result == nil {
		return serve.Classification{}, false, 0, errors.New("response missing result")
	}
	return *cr.Result, false, 0, nil
}

// fetchStats grabs the server's /statz snapshot (best effort).
func fetchStats(addr string) (*serve.Stats, error) {
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get("http://" + addr + "/statz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// buildReport merges the worker stats into the report.
func buildReport(stats []workerStats, elapsed time.Duration, proto, scale, addr string, conc int, n int64, selfserve bool) *report {
	var all []float64
	rep := &report{
		Date:        time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Addr:        addr,
		SelfServe:   selfserve,
		Proto:       proto,
		Scale:       scale,
		Concurrency: conc,
		Requests:    n,
		ElapsedSec:  elapsed.Seconds(),
	}
	var correct int64
	for i := range stats {
		st := &stats[i]
		rep.Answered += st.answered
		rep.Rejected += st.rejected
		rep.Errors += st.errors
		rep.Degraded += st.degraded
		rep.Retries += st.client.Retries
		rep.Hedges += st.client.Hedges
		rep.HedgeWins += st.client.HedgeWins
		rep.Timeouts += st.client.Timeouts
		correct += st.correct
		all = append(all, st.latencies...)
	}
	if elapsed > 0 {
		rep.QPS = float64(rep.Answered) / elapsed.Seconds()
	}
	if rep.Answered > 0 {
		rep.Accuracy = float64(correct) / float64(rep.Answered)
	}
	rep.LatencyUs = summarize(all)
	return rep
}

// summarize computes the latency quantile block (microseconds).
func summarize(lat []float64) latencySummary {
	if len(lat) == 0 {
		return latencySummary{}
	}
	sort.Float64s(lat)
	sum := 0.0
	for _, v := range lat {
		sum += v
	}
	q := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(lat)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(lat) {
			i = len(lat) - 1
		}
		return lat[i]
	}
	return latencySummary{
		P50:   q(0.50),
		P90:   q(0.90),
		P99:   q(0.99),
		P999:  q(0.999),
		Mean:  sum / float64(len(lat)),
		Max:   lat[len(lat)-1],
		Count: len(lat),
	}
}
