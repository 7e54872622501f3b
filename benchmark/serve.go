package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vortex/internal/fleet"
	"vortex/internal/obs"
	"vortex/internal/rng"
	"vortex/internal/serve"
)

// Serving-load settings shared by serve-quick and serve-full.
const (
	// fixedRate is the open loop's fixed offered rate: about half of
	// vortexd's two-connection capacity at both scales with the default
	// batch linger.
	fixedRate = 1000.0
	// p99Limit is the latency limit a rate step's p99 must meet. It sits
	// far above the generator's own lateness (Go timers wake about 1 ms
	// late on a mostly idle process, so the generator runs 0.6–1.2 ms
	// behind) and above the default linger's closed-loop p99 of a few
	// ms, so a step fails on queueing, not on timer noise or a short
	// stall of the host. Near capacity the p99 climbs steeply, so the
	// highest passing rate depends little on the exact limit.
	p99Limit = 25 * time.Millisecond
	// minStepSamples makes every rate step's p99 resolved: at least
	// minTail samples lie beyond it.
	minStepSamples = 1100
	// minStep is the shortest rate step.
	minStep = 200 * time.Millisecond
	// maxOutstanding caps unanswered requests per connection; a step
	// that reaches it has fallen behind and stops sending.
	maxOutstanding = 256
	// answeredShare is the share of the offered requests a step must
	// have answered by its end for the backlog to count as steady.
	answeredShare = 0.95
	// drainGrace bounds how long a phase waits for its last replies.
	drainGrace = 5 * time.Second
	// runBlock is the request count of one run_s block.
	runBlock = 1000
)

// reqPool is the requests' input: the boot's held-out test set in a
// seeded order, each sample's request frame pre-encoded, and the
// classes the fleet's members give it, computed before any traffic.
type reqPool struct {
	xs      [][]float64
	frames  [][]byte
	labels  []int
	allowed []uint32 // bit c set: some member classifies the sample as c
}

func newPool(boot *serve.Boot, seed uint64) (*reqPool, error) {
	perm := rng.New(seed ^ 0x9e3779b97f4a7c15).Perm(boot.Test.Len())
	members := len(boot.Fleet.Members())
	p := &reqPool{}
	for _, i := range perm {
		s := boot.Test.Samples[i]
		var mask uint32
		// The router round-robins, so consecutive reads visit every member.
		for k := 0; k < members; k++ {
			r, err := boot.Fleet.Classify(s.Pixels)
			if err != nil {
				return nil, fmt.Errorf("fleet.Classify before traffic: %w", err)
			}
			mask |= 1 << uint(r.Class)
		}
		p.xs = append(p.xs, s.Pixels)
		p.frames = append(p.frames, encodeRequest(s.Pixels))
		p.labels = append(p.labels, s.Label)
		p.allowed = append(p.allowed, mask)
	}
	return p, nil
}

// tally counts one phase's answers.
type tally struct {
	attempted, answered, correct, failed, wrong int64
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.answered += o.answered
	t.correct += o.correct
	t.failed += o.failed
	t.wrong += o.wrong
}

// answer accounts one reply for pool sample i.
func (t *tally) answer(p *reqPool, i, class int) {
	t.answered++
	if class < 0 || class > 31 || p.allowed[i]&(1<<uint(class)) == 0 {
		t.wrong++
	}
	if class == p.labels[i] {
		t.correct++
	}
}

// closedResult is one closed-loop phase.
type closedResult struct {
	tally
	lat    []time.Duration // per answered request
	blocks []time.Duration // wall time of each run of runBlock answers
	wall   time.Duration
	cpu    time.Duration
}

// closedLoop runs conns callers for dur, each sending its next request
// through serve.BinaryClient as soon as the previous reply arrives.
func closedLoop(addr string, conns int, dur time.Duration, p *reqPool, t *tracer, parent int) (*closedResult, error) {
	type caller struct {
		tally
		lat  []time.Duration
		done []time.Duration
		err  error
	}
	callers := make([]caller, conns)
	clients := make([]*serve.BinaryClient, conns)
	for i := range clients {
		bc, err := serve.DialBinary(addr, 5*time.Second)
		if err != nil {
			for _, c := range clients[:i] {
				c.Close()
			}
			return nil, err
		}
		bc.SetTimeout(drainGrace)
		clients[i] = bc
	}
	m := startCPU()
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &callers[i]
			for k := i; time.Now().Before(end); k += conns {
				j := k % len(p.xs)
				c.attempted++
				id := t.start("client.request", parent)
				sent := time.Now()
				cls, err := clients[i].Classify(p.xs[j])
				now := time.Now()
				t.end(id)
				if err != nil {
					c.failed++
					var re *serve.RemoteError
					if !errors.As(err, &re) {
						c.err = err // the connection is gone
						return
					}
					continue
				}
				c.answer(p, j, cls.Class)
				c.lat = append(c.lat, now.Sub(sent))
				c.done = append(c.done, now.Sub(start))
			}
		}(i)
	}
	wg.Wait()
	out := &closedResult{}
	out.cpu, out.wall = m.stop()
	type reply struct{ done, lat time.Duration }
	var replies []reply
	for i := range callers {
		c := &callers[i]
		clients[i].Close()
		if c.err != nil {
			return nil, fmt.Errorf("closed-loop caller %d: %w", i, c.err)
		}
		out.add(c.tally)
		for k := range c.lat {
			replies = append(replies, reply{c.done[k], c.lat[k]})
		}
	}
	sort.Slice(replies, func(a, b int) bool { return replies[a].done < replies[b].done })
	for _, r := range replies {
		out.lat = append(out.lat, r.lat)
	}
	for b := runBlock; b <= len(replies); b += runBlock {
		var prev time.Duration
		if b > runBlock {
			prev = replies[b-runBlock-1].done
		}
		out.blocks = append(out.blocks, replies[b-1].done-prev)
	}
	return out, nil
}

// server is one running vortexd service on a loopback listener.
type server struct {
	srv  *serve.Server
	addr string
	done chan error
}

func startServer(inputs int, eng serve.Engine) (*server, error) {
	srv, err := serve.New(serve.Config{Inputs: inputs, Engine: eng})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ln) }()
	return s, nil
}

// stop drains the server, waits for Serve to return and checks that its
// books balance: every admitted request was served, failed or timed out.
func (s *server) stop(rep *report) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; err == nil {
		err = serr
	}
	st := s.srv.Stats()
	if st.Accepted != st.Served+st.Failed+st.TimedOut {
		rep.mismatch("server books: accepted %d != served %d + failed %d + timed out %d",
			st.Accepted, st.Served, st.Failed, st.TimedOut)
	}
	return err
}

// timedEngine is the traced run's serve.Engine: it forwards to the
// fleet and records a span and the duration of every batch read.
type timedEngine struct {
	f      *fleet.Fleet
	t      *tracer
	parent atomic.Int64

	mu    sync.Mutex
	durs  []time.Duration
	reads int64
}

func (e *timedEngine) ReadBatch(xs [][]float64) (fleet.BatchResult, error) {
	return e.ReadBatchCtx(context.Background(), xs)
}

func (e *timedEngine) ReadBatchCtx(ctx context.Context, xs [][]float64) (fleet.BatchResult, error) {
	start := time.Now()
	res, err := e.f.ReadBatchCtx(ctx, xs)
	end := time.Now()
	e.t.record("fleet.read", int(e.parent.Load()), start, end)
	e.mu.Lock()
	e.durs = append(e.durs, end.Sub(start))
	e.reads += int64(len(xs))
	e.mu.Unlock()
	return res, err
}

func (e *timedEngine) Stats() fleet.Stats { return e.f.Stats() }

// snapshot returns the batch-read durations and vector count so far.
func (e *timedEngine) snapshot() ([]time.Duration, int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]time.Duration(nil), e.durs...), e.reads
}

// Set-up repeats: at least minBuilds fleet builds, more while their
// total stays under setupBudget, at most maxBuilds.
const (
	minBuilds   = 3
	maxBuilds   = 25
	setupBudget = 1500 * time.Millisecond
)

// runServe is the serve-quick and serve-full workloads: vortexd's
// binary protocol over loopback against a fleet of the given scale.
func runServe(ctx context.Context, c runCfg, scale string) (*report, error) {
	rep := newReport()
	conns := gomaxprocs()
	rejected := countersNow("serve.rejected_queue_full", "serve.deadline_exceeded")
	var boot *serve.Boot
	var setups []time.Duration
	var spent time.Duration
	for len(setups) < maxBuilds && (len(setups) < minBuilds || spent < setupBudget) {
		if c.tiny && len(setups) == 1 {
			break
		}
		start := time.Now()
		b, err := serve.BuildFleet(serve.BootConfig{Scale: scale, Seed: c.seed})
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
		spent += setups[len(setups)-1]
		boot = b
	}
	builds := len(setups)
	p, err := newPool(boot, c.seed)
	if err != nil {
		return nil, err
	}
	rep.manifest["scale"] = scale
	rep.manifest["inputs"] = boot.Inputs
	rep.manifest["members"] = len(boot.Fleet.Members())
	rep.manifest["pool"] = len(p.xs)
	rep.manifest["connections"] = conns
	rep.manifest["fleet_builds"] = builds
	rep.manifest["p99_limit_ms"] = float64(p99Limit) / 1e6
	if c.trace {
		err = serveTraced(c, rep, scale, boot, p, conns)
	} else {
		err = serveUntraced(c, rep, boot, p, conns, setups)
	}
	if err != nil {
		return nil, err
	}
	rejectedN := rejected.since("serve.rejected_queue_full") + rejected.since("serve.deadline_exceeded")
	if c.trace {
		rep.metrics["serve.rejected"] = float64(rejectedN)
	}
	rep.manifest["rejected"] = rejectedN
	return rep, nil
}

// serveUntraced measures the end-to-end metrics: a closed loop, the
// open loop at fixedRate, then the highest rate that meets p99Limit.
func serveUntraced(c runCfg, rep *report, boot *serve.Boot, p *reqPool, conns int, setups []time.Duration) error {
	s, err := startServer(boot.Inputs, boot.Fleet)
	if err != nil {
		return err
	}
	closedDur := c.budget * 35 / 100
	openDur := c.budget * 35 / 100
	searchDur := c.budget - closedDur - openDur
	cl, err := closedLoop(s.addr, conns, closedDur, p, nil, noSpan)
	if err != nil {
		s.stop(rep)
		return err
	}
	fixed, err := openStep(s.addr, conns, fixedRate, openDur, p, c.seed)
	if err != nil {
		s.stop(rep)
		return err
	}
	capacity := float64(cl.answered) / cl.wall.Seconds()
	maxRate, steps, err := searchRate(s.addr, conns, p, c.seed, capacity, searchDur, c.tiny)
	if serr := s.stop(rep); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	var t tally
	t.add(cl.tally)
	t.add(fixed.tally)
	rep.attempted, rep.failed = t.attempted, t.failed
	if t.wrong > 0 {
		rep.mismatch("%d answers differ from fleet.Classify on their sample", t.wrong)
	}
	for _, st := range steps {
		if st.wrong > 0 {
			rep.mismatch("rate step %.0f/s: %d answers differ from fleet.Classify", st.rate, st.wrong)
		}
	}
	lat := millis(cl.lat)
	rep.metrics["setup_s"] = seconds(setups).median()
	rep.metrics["run_s"] = seconds(cl.blocks).median()
	if len(cl.blocks) == 0 { // fewer than runBlock answers (smoke sizes)
		rep.metrics["run_s"] = cl.wall.Seconds() * runBlock / float64(max(cl.answered, 1))
	}
	rep.metrics["mem_peak_mb"] = peakRSSMB()
	rep.metrics["ok_ratio"] = 1 - ratio(float64(t.failed), float64(t.attempted))
	rep.metrics["accuracy"] = ratio(float64(cl.correct), float64(cl.answered))
	rep.metrics["throughput_rps"] = float64(cl.answered) / cl.wall.Seconds()
	rep.metrics["lat_p50_ms"] = lat.median()
	open := millis(fixed.lat)
	rep.metrics["open_p50_ms"] = open.median()
	rep.metrics["max_rate_rps"] = maxRate
	rep.manifest["lat_samples"] = len(cl.lat)
	rep.manifest["lat_p90_ms"] = lat.quantile(0.9)
	rep.manifest["lat_p99_ms"] = lat.quantile(0.99)
	rep.manifest["lat_p99_resolved"] = resolved(0.99, len(cl.lat))
	rep.manifest["run_blocks"] = len(cl.blocks)
	rep.manifest["open_samples"] = len(fixed.lat)
	rep.manifest["open_p90_ms"] = open.quantile(0.9)
	rep.manifest["open_p99_ms"] = open.quantile(0.99)
	rep.manifest["open_p99_resolved"] = resolved(0.99, len(fixed.lat))
	rep.manifest["open_late_p99_ms"] = fixed.lateP99ms
	stepLog := make([]string, 0, len(steps)+1)
	for _, st := range append([]*stepResult{fixed}, steps...) {
		stepLog = append(stepLog, st.String())
		fmt.Fprintf(c.log, "  step %s\n", st)
	}
	rep.manifest["rate_steps"] = stepLog
	return nil
}

// serveTraced measures the per-layer metrics: an untraced closed loop
// as the baseline, the same loop against a timing engine with spans
// around every request and batch read, and the open loop at fixedRate
// for the generator's lateness.
func serveTraced(c runCfg, rep *report, scale string, boot *serve.Boot, p *reqPool, conns int) error {
	t := newTracer()
	var gens []time.Duration
	for i := 0; i < 3; i++ {
		id := t.start("dataset.gen", noSpan)
		start := time.Now()
		if _, err := serve.LoadSet(scale, c.seed); err != nil {
			return err
		}
		gens = append(gens, time.Since(start))
		t.end(id)
	}
	rep.metrics["dataset.gen_s"] = seconds(gens).median()

	phase := c.budget * 4 / 10
	base, err := startServer(boot.Inputs, boot.Fleet)
	if err != nil {
		return err
	}
	untraced, err := closedLoop(base.addr, conns, phase, p, nil, noSpan)
	if serr := base.stop(rep); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}

	eng := &timedEngine{f: boot.Fleet, t: t}
	s, err := startServer(boot.Inputs, eng)
	if err != nil {
		return err
	}
	root := t.start("serve.closed_loop", noSpan)
	eng.parent.Store(int64(root))
	batch := obs.Default().Histogram("serve.batch.size").Snapshot()
	traced, err := closedLoop(s.addr, conns, phase, p, t, root)
	t.end(root)
	if err != nil {
		s.stop(rep)
		return err
	}
	batch2 := obs.Default().Histogram("serve.batch.size").Snapshot()
	durs, reads := eng.snapshot()
	openID := t.start("serve.open_loop", noSpan)
	eng.parent.Store(int64(openID))
	open, err := openStep(s.addr, conns, fixedRate, c.budget-2*phase, p, c.seed)
	t.end(openID)
	if serr := s.stop(rep); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	var all tally
	all.add(untraced.tally)
	all.add(traced.tally)
	all.add(open.tally)
	rep.attempted, rep.failed = all.attempted, all.failed
	if all.wrong > 0 {
		rep.mismatch("%d answers differ from fleet.Classify on their sample", all.wrong)
	}

	var engine time.Duration
	for _, d := range durs {
		engine += d
	}
	p50us := float64(millis(traced.lat).median()) * 1e3
	enginePerReq := float64(engine) / 1e3 / float64(max(traced.answered, 1))
	rep.metrics["fleet.read_us"] = float64(millis(durs).median()) * 1e3
	rep.metrics["fleet.reads"] = float64(reads)
	rep.metrics["serve.batch_size_mean"] = ratio(batch2.Sum-batch.Sum, float64(batch2.Count-batch.Count))
	rep.metrics["serve.nonengine_us"] = p50us - enginePerReq
	rep.metrics["serve.engine_share"] = ratio(enginePerReq, p50us)
	rep.metrics["cpu_util"] = ratio(float64(untraced.cpu), float64(untraced.wall)*float64(gomaxprocs()))
	rep.metrics["cpu_us_per_req"] = ratio(float64(untraced.cpu)/1e3, float64(untraced.answered))
	rep.metrics["gen.late_p99_ms"] = open.lateP99ms
	base0 := float64(untraced.answered) / untraced.wall.Seconds()
	tr0 := float64(traced.answered) / traced.wall.Seconds()
	rep.metrics["trace.overhead"] = ratio(base0, tr0) - 1
	lt := t.selfTimes()
	rep.metrics["trace.coverage"] = ratio(float64(lt["serve.closed_loop"].Total-lt["serve.closed_loop"].Self),
		float64(lt["serve.closed_loop"].Total))
	rep.manifest["fleet_read_samples"] = len(durs)
	rep.manifest["traced_lat_samples"] = len(traced.lat)
	rep.manifest["untraced_rps"] = base0
	rep.manifest["traced_rps"] = tr0
	rep.manifest["open_late_p99_ms"] = open.lateP99ms
	writeTable(c.log, "serve-"+scale, lt)
	fmt.Fprintf(c.log, "  closed loop: untraced %.0f req/s, traced %.0f req/s: overhead %+.2f%%; engine %.1f µs of p50 %.1f µs per request\n",
		base0, tr0, 100*rep.metrics["trace.overhead"], enginePerReq, p50us)
	return writeSpans(c, "serve-"+scale, t)
}
