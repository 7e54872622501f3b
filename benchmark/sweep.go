package main

import (
	"context"
	_ "embed"
	"fmt"
	"math"
	"time"

	"vortex/internal/core"
	"vortex/internal/dataset"
	"vortex/internal/experiment"
	"vortex/internal/hw"
	"vortex/internal/irdrop"
	"vortex/internal/mat"
	"vortex/internal/ncs"
	"vortex/internal/obs"
	"vortex/internal/rng"
	"vortex/internal/train"
)

// Reference CSVs of the two sweep runners at seed 42 (ensemble: soasweep
// at Full scale; train-ir: table1 at Quick scale), as rendered by
// RunResult.CSV, without the timing footer.
var (
	//go:embed testdata/ensemble-seed42.csv
	refEnsemble string
	//go:embed testdata/train-ir-seed42.csv
	refTrainIR string
)

// refSeed is the seed the stored references were made with.
const refSeed = 42

// minReps is the fewest repetitions a measured phase makes, whatever
// the budget.
const minReps = 3

// repeat calls fn until the budget is spent, at least min times, and
// never starts a call expected to overrun the budget by more than half
// a call.
func repeat(budget time.Duration, min int, fn func() error) error {
	start := time.Now()
	var last time.Duration
	for n := 0; n < min || time.Since(start)+last/2 < budget; n++ {
		t := time.Now()
		if err := fn(); err != nil {
			return err
		}
		last = time.Since(t)
	}
	return nil
}

// counterDelta reads counters of the default obs registry before and
// after a phase.
type counterDelta map[string]int64

func countersNow(names ...string) counterDelta {
	d := counterDelta{}
	reg := obs.Default()
	for _, n := range names {
		d[n] = reg.Counter(n).Value()
	}
	return d
}

// since returns the counter's growth since d was taken.
func (d counterDelta) since(name string) int64 {
	return obs.Default().Counter(name).Value() - d[name]
}

// histSum returns the running sum of a default-registry histogram.
func histSum(name string) float64 { return obs.Default().Histogram(name).Snapshot().Sum }

// fillBatchJob sets the serve-shaped end-to-end metrics of a sweep, which
// runs as one batch job with no arrival process: each call is one
// operation, so open-loop latency equals closed-loop latency and the
// highest sustainable rate is the throughput.
func fillBatchJob(rep *report, calls []time.Duration, opsPerCall int, runS float64) {
	ms := millis(calls)
	rep.metrics["throughput_rps"] = float64(opsPerCall) / runS
	rep.metrics["lat_p50_ms"] = ms.median()
	rep.metrics["open_p50_ms"] = rep.metrics["lat_p50_ms"]
	rep.metrics["max_rate_rps"] = rep.metrics["throughput_rps"]
	rep.manifest["lat_samples"] = len(calls)
	rep.manifest["lat_max_ms"] = ms.quantile(1)
}

// coverageSlack is the share of run_s the benchmark's own glue between
// layer calls may take.
const coverageSlack = 0.02

// logCoverage prints whether the layer self times account for the
// untraced run_s to within the tracing overhead.
func logCoverage(c runCfg, runS, traced float64, rep *report) {
	over, cov := rep.metrics["trace.overhead"], rep.metrics["trace.coverage"]
	fmt.Fprintf(c.log, "  untraced run_s %.4f, traced %.4f: overhead %+.2f%%; layer self times are %.1f%% of run_s (within overhead: %v)\n",
		runS, traced, 100*over, 100*cov, math.Abs(cov-1) <= math.Abs(over)+coverageSlack)
}

// ---------------------------------------------------------------- ensemble

// ensembleInputs is the soasweep runner's input, rebuilt from public
// calls: the data sets, the class-template weights, the per-trial
// fabrication seeds and the NCS configuration of one trial.
type ensembleInputs struct {
	train, test *dataset.Set
	weights     *mat.Matrix
	seeds       []uint64
	cfg         ncs.Config
}

// ensembleScale is the scale the workload runs the soasweep runner at.
func ensembleScale(c runCfg) experiment.Scale {
	if c.tiny {
		return experiment.Quick
	}
	return experiment.Full
}

// buildEnsembleInputs mirrors soasweep's set-up: digit sets from seed
// and seed+1, undersampled per scale; sigma 0.6, 6-bit ADC; trial mc
// fabricated from seed+100·mc+11. Full scale uses the analytic backend,
// as the runner does for ideal-wire sweeps.
func buildEnsembleInputs(scale experiment.Scale, trials int, seed uint64, t *tracer, parent int) (*ensembleInputs, error) {
	perTrain, perTest, factor := 25, 15, 4
	backend := hw.Circuit
	if scale == experiment.Full {
		perTrain, perTest, factor, backend = 400, 200, 1, hw.Analytic
	}
	in := &ensembleInputs{}
	err := t.span("dataset.gen", parent, func() error {
		var err error
		in.train, in.test, err = digitSets(perTrain, perTest, factor, seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	in.weights = classTemplateWeights(in.train)
	in.seeds = make([]uint64, trials)
	for mc := range in.seeds {
		in.seeds[mc] = seed + 100*uint64(mc) + 11
	}
	in.cfg = ncs.DefaultConfig(in.train.Features(), dataset.NumClasses)
	in.cfg.Backend = backend
	in.cfg.Sigma = 0.6
	in.cfg.ADCBits = 6
	return in, nil
}

// digitSets generates the experiment protocol's train/test sets.
func digitSets(perTrain, perTest, factor int, seed uint64) (trainSet, testSet *dataset.Set, err error) {
	cfg := dataset.DefaultConfig()
	if trainSet, err = dataset.GenerateBalanced(cfg, perTrain, rng.New(seed)); err != nil {
		return nil, nil, err
	}
	if testSet, err = dataset.GenerateBalanced(cfg, perTest, rng.New(seed+1)); err != nil {
		return nil, nil, err
	}
	if trainSet, err = dataset.Undersample(trainSet, factor, dataset.Decimate); err != nil {
		return nil, nil, err
	}
	if testSet, err = dataset.Undersample(testSet, factor, dataset.Decimate); err != nil {
		return nil, nil, err
	}
	return trainSet, testSet, nil
}

// classTemplateWeights is the soasweep runner's weight matrix: each
// class column is the mean pixel vector of its training samples, shifted
// to zero mean per column and scaled so the largest magnitude is 1.
func classTemplateWeights(set *dataset.Set) *mat.Matrix {
	inputs := set.Features()
	k := dataset.NumClasses
	w := mat.NewMatrix(inputs, k)
	counts := make([]int, k)
	for _, s := range set.Samples {
		counts[s.Label]++
		for i, p := range s.Pixels {
			w.Data[i*k+s.Label] += p
		}
	}
	maxAbs := 0.0
	for j := 0; j < k; j++ {
		if counts[j] == 0 {
			continue
		}
		mean := 0.0
		for i := 0; i < inputs; i++ {
			w.Data[i*k+j] /= float64(counts[j])
			mean += w.Data[i*k+j]
		}
		mean /= float64(inputs)
		for i := 0; i < inputs; i++ {
			v := w.Data[i*k+j] - mean
			w.Data[i*k+j] = v
			maxAbs = math.Max(maxAbs, math.Abs(v))
		}
	}
	if maxAbs > 0 {
		for i := range w.Data {
			w.Data[i] /= maxAbs
		}
	}
	return w
}

// runSoa makes one call of the soasweep runner.
func runSoa(ctx context.Context, scale experiment.Scale, seed uint64) (*experiment.SoaResult, *experiment.RunResult, time.Duration, error) {
	runner, ok := experiment.Lookup("soasweep")
	if !ok {
		return nil, nil, 0, fmt.Errorf("soasweep runner not registered")
	}
	start := time.Now()
	res, err := runner.Run(ctx, scale, seed)
	wall := time.Since(start)
	if err != nil {
		return nil, nil, 0, err
	}
	rr, ok := res.(*experiment.RunResult)
	if !ok {
		return nil, nil, 0, fmt.Errorf("soasweep returned %T, want *experiment.RunResult", res)
	}
	soa, ok := rr.Unwrap().(*experiment.SoaResult)
	if !ok {
		return nil, nil, 0, fmt.Errorf("soasweep result is %T", rr.Unwrap())
	}
	return soa, rr, wall, nil
}

// soaCalls is what repeated soasweep calls measured.
type soaCalls struct {
	first          *experiment.SoaResult
	csv            string
	setup, sweep   []time.Duration
	wall           []time.Duration
	rss            sample // each call's peak resident set, MiB
	trials, missed int64
	cpu, cpuWall   time.Duration
}

// measureSoa calls the soasweep runner for budget and checks that every
// call rendered the same CSV.
func measureSoa(ctx context.Context, c runCfg, budget time.Duration, rep *report) (*soaCalls, error) {
	scale := ensembleScale(c)
	out := &soaCalls{}
	m := startCPU()
	err := repeat(budget, minReps, func() error {
		w := watchRSS()
		soa, rr, wall, err := runSoa(ctx, scale, c.seed)
		out.rss = append(out.rss, w.end())
		if err != nil {
			return err
		}
		csv := stripFooter(rr.CSV())
		if out.first == nil {
			out.first, out.csv = soa, csv
		} else if csv != out.csv {
			rep.mismatch("soasweep CSV differs between calls with seed %d", c.seed)
		}
		out.setup = append(out.setup, soa.Setup)
		out.sweep = append(out.sweep, soa.Sweep)
		out.wall = append(out.wall, wall)
		out.trials += int64(soa.Trials)
		out.missed += rr.Missing
		return nil
	})
	out.cpu, out.cpuWall = m.stop()
	return out, err
}

// runEnsemble is the `ensemble` workload: the soasweep runner at Full
// scale, 256 fabrications at 784×10 on the vectorised SoA path.
func runEnsemble(ctx context.Context, c runCfg) (*report, error) {
	rep := newReport()
	scale := ensembleScale(c)
	budget := c.budget
	if c.trace {
		budget /= 2 // the other half runs the traced composition
	}
	vec := countersNow("experiment.vec.trials", "experiment.vec.fallbacks")
	calls, err := measureSoa(ctx, c, budget, rep)
	if err != nil {
		return nil, err
	}
	soa := calls.first
	rep.attempted, rep.failed = calls.trials, calls.missed
	rep.manifest["scale"] = scale.String()
	rep.manifest["trials"] = soa.Trials
	rep.manifest["calls"] = len(calls.sweep)
	in, err := buildEnsembleInputs(scale, soa.Trials, c.seed, nil, noSpan)
	if err != nil {
		return nil, err
	}
	rep.manifest["geometry"] = fmt.Sprintf("%dx%d", in.train.Features(), dataset.NumClasses)
	rep.manifest["test_samples"] = in.test.Len()
	if !c.tiny && c.seed == refSeed && calls.csv != refEnsemble {
		rep.mismatch("soasweep CSV for seed %d differs from testdata/ensemble-seed42.csv", c.seed)
	}
	if err := checkLaneGroup(in, soa, c.seed, rep); err != nil {
		return nil, err
	}
	runS := seconds(calls.sweep).median()
	if !c.trace {
		rep.metrics["setup_s"] = seconds(calls.setup).median()
		rep.metrics["run_s"] = runS
		rep.metrics["mem_peak_mb"] = calls.rss.median()
		rep.metrics["ok_ratio"] = 1 - ratio(float64(rep.failed), float64(rep.attempted))
		rep.metrics["accuracy"] = soa.Mean
		fillBatchJob(rep, calls.wall, soa.Trials, runS)
		return rep, nil
	}

	trials := float64(calls.trials)
	rep.metrics["experiment.vec_ratio"] = ratio(float64(vec.since("experiment.vec.trials")), trials)
	rep.metrics["experiment.vec_fallbacks"] = float64(vec.since("experiment.vec.fallbacks"))
	rep.metrics["cpu_util"] = ratio(float64(calls.cpu), float64(calls.cpuWall)*float64(gomaxprocs()))
	rep.metrics["cpu_us_per_req"] = ratio(float64(calls.cpu)/1e3, trials)

	t := newTracer()
	var sweeps []time.Duration
	err = repeat(c.budget-budget, 2, func() error {
		sid := t.start("experiment.setup", noSpan)
		in, err := buildEnsembleInputs(scale, soa.Trials, c.seed, t, sid)
		t.end(sid)
		if err != nil {
			return err
		}
		start := time.Now()
		rates, err := composeEnsemble(in, t)
		sweeps = append(sweeps, time.Since(start))
		if err != nil {
			return err
		}
		for i, r := range rates {
			if math.Float64bits(r) != math.Float64bits(soa.Rates[i]) {
				rep.mismatch("composed ensemble trial %d rate %v != runner %v", i, r, soa.Rates[i])
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := float64(len(sweeps))
	lt := t.selfTimes()
	layers := []string{"hw.fabricate", "ncs.program", "ncs.evaluate"}
	var covered time.Duration
	for _, name := range layers {
		rep.metrics[name+"_s"] = self(lt, name).Seconds() / n
		covered += self(lt, name)
	}
	rep.metrics["dataset.gen_s"] = self(lt, "dataset.gen").Seconds() / n
	rep.metrics["mat.mulvec_lanes_ns"], rep.metrics["mat.mulvec_lanes_bytes"] = mulVecLanesCost(in.train.Features())
	traced := seconds(sweeps).median()
	rep.metrics["trace.overhead"] = traced/runS - 1
	rep.metrics["trace.coverage"] = covered.Seconds() / n / runS
	rep.manifest["traced_calls"] = len(sweeps)
	rep.manifest["untraced_run_s"] = runS
	writeTable(c.log, "ensemble", lt)
	logCoverage(c, runS, traced, rep)
	return rep, writeSpans(c, "ensemble", t)
}

// composeEnsemble evaluates the ensemble from public calls, in the
// runner's chunks of 32 trials, with a span around each layer call.
func composeEnsemble(in *ensembleInputs, t *tracer) ([]float64, error) {
	const chunk = 32
	// Trial sets exist on the analytic backend only; with ideal wires it
	// reproduces the circuit backend's draws bit for bit.
	cfg := in.cfg
	cfg.Backend = hw.Analytic
	root := t.start("experiment.sweep", noSpan)
	defer t.end(root)
	rates := make([]float64, 0, len(in.seeds))
	for lo := 0; lo < len(in.seeds); lo += chunk {
		seeds := in.seeds[lo:min(lo+chunk, len(in.seeds))]
		var ts *ncs.TrialSet
		err := t.span("hw.fabricate", root, func() error {
			var err error
			ts, err = ncs.NewTrialSet(cfg, seeds)
			return err
		})
		if err != nil {
			return nil, err
		}
		if err := t.span("ncs.program", root, func() error {
			return ts.ProgramWeights(in.weights, hw.ProgramOptions{})
		}); err != nil {
			return nil, err
		}
		var rs []float64
		if err := t.span("ncs.evaluate", root, func() error {
			var err error
			rs, err = ts.EvaluateAll(in.test)
			return err
		}); err != nil {
			return nil, err
		}
		rates = append(rates, rs...)
	}
	return rates, nil
}

// checkLaneGroup recomputes one lane group of the runner's trials
// through the per-trial path (ncs.New, ProgramWeights, Evaluate) and
// requires bit-identical rates. The group is chosen by the seed.
func checkLaneGroup(in *ensembleInputs, soa *experiment.SoaResult, seed uint64, rep *report) error {
	groups := (len(in.seeds) + mat.TrialLanes - 1) / mat.TrialLanes
	g := int(seed % uint64(groups))
	lo, hi := g*mat.TrialLanes, min((g+1)*mat.TrialLanes, len(in.seeds))
	for i := lo; i < hi; i++ {
		n, err := ncs.New(in.cfg, rng.New(in.seeds[i]))
		if err != nil {
			return err
		}
		if err := n.ProgramWeights(in.weights, hw.ProgramOptions{}); err != nil {
			return err
		}
		r, err := n.Evaluate(in.test)
		if err != nil {
			return err
		}
		if math.Float64bits(r) != math.Float64bits(soa.Rates[i]) {
			rep.mismatch("trial %d: per-trial rate %v != runner %v", i, r, soa.Rates[i])
		}
	}
	rep.manifest["checked_lane_group"] = fmt.Sprintf("trials %d..%d", lo, hi-1)
	return nil
}

// mulVecLanesCost times the fused lane kernel (Tensor3.MulVecLanesTo)
// at rows×10×TrialLanes and returns the median ns per call and the bytes
// one call reads and writes: the tensor, the input and the output.
func mulVecLanesCost(rows int) (ns, bytes float64) {
	g := mat.NewTensor3(rows, dataset.NumClasses, mat.TrialLanes)
	src := rng.New(1)
	for i := range g.Data {
		g.Data[i] = src.Float64()
	}
	x := make([]float64, rows)
	for i := range x {
		x[i] = float64(i % 2)
	}
	dst := make([]float64, dataset.NumClasses*mat.TrialLanes)
	const calls = 200
	per := make(sample, 0, 25)
	for r := 0; r < 25; r++ {
		start := time.Now()
		for k := 0; k < calls; k++ {
			g.MulVecLanesTo(dst, x)
		}
		per = append(per, float64(time.Since(start))/calls)
	}
	return per.median(), float64(8 * (len(g.Data) + len(x) + len(dst)))
}

// ---------------------------------------------------------------- train-ir

// table1Sizes are the undersampling factors table1 runs at Quick scale
// (196 and 49 rows).
var table1Sizes = []int{2, 4}

// runTable1 makes one call of the table1 runner at Quick scale.
func runTable1(ctx context.Context, seed uint64) (*experiment.Table1Result, string, time.Duration, error) {
	runner, ok := experiment.Lookup("table1")
	if !ok {
		return nil, "", 0, fmt.Errorf("table1 runner not registered")
	}
	start := time.Now()
	res, err := runner.Run(ctx, experiment.Quick, seed)
	wall := time.Since(start)
	if err != nil {
		return nil, "", 0, err
	}
	rr, ok := res.(*experiment.RunResult)
	if !ok {
		return nil, "", 0, fmt.Errorf("table1 returned %T, want *experiment.RunResult", res)
	}
	t1, ok := rr.Unwrap().(*experiment.Table1Result)
	if !ok {
		return nil, "", 0, fmt.Errorf("table1 result is %T", rr.Unwrap())
	}
	return t1, stripFooter(rr.CSV()), wall, nil
}

// meanTestRate averages the three test-rate rows of Table 1.
func meanTestRate(r *experiment.Table1Result) float64 {
	var s sample
	for _, row := range [][]float64{r.CLDIRTest, r.VortexIRTest, r.CLDNoIRTest} {
		s = append(s, row...)
	}
	return s.mean()
}

// runTrainIR is the `train-ir` workload: the table1 runner at Quick
// scale — on-device CLD and Vortex at 196 and 49 rows with r_wire 2.5 Ω,
// the write path.
func runTrainIR(ctx context.Context, c runCfg) (*report, error) {
	rep := newReport()
	// Set-up is the Quick protocol's digit-set generation, which every
	// runner call repeats before it trains.
	var setups []time.Duration
	var spent time.Duration
	for len(setups) < maxBuilds && (len(setups) < minBuilds || spent < setupBudget/2) {
		start := time.Now()
		if _, _, err := digitSets(25, 15, 1, c.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
		spent += setups[len(setups)-1]
	}
	rep.manifest["setup_repeats"] = len(setups)
	budget := c.budget
	if c.trace {
		budget /= 2
	}
	reps := minReps
	if c.tiny {
		reps = 1
	}
	var first *experiment.Table1Result
	var firstCSV string
	var walls []time.Duration
	var rss sample
	m := startCPU()
	err := repeat(budget, reps, func() error {
		w := watchRSS()
		r, csv, wall, err := runTable1(ctx, c.seed)
		rss = append(rss, w.end())
		if err != nil {
			return err
		}
		if first == nil {
			first, firstCSV = r, csv
		} else if csv != firstCSV {
			rep.mismatch("table1 CSV differs between calls with seed %d", c.seed)
		}
		walls = append(walls, wall)
		return nil
	})
	if err != nil {
		return nil, err
	}
	cpu, cpuWall := m.stop()
	trainings := 3 * len(first.Sizes) // CLD w/ IR, Vortex w/ IR, CLD w/o IR per size
	rep.attempted = int64(trainings * len(walls))
	for _, row := range [][]float64{first.CLDIRTest, first.VortexIRTest, first.CLDNoIRTest} {
		for _, v := range row {
			if math.IsNaN(v) {
				rep.failed += int64(len(walls))
			}
		}
	}
	rep.manifest["scale"] = "quick"
	rep.manifest["sizes"] = first.Sizes
	rep.manifest["rwire_ohm"] = first.RWire
	rep.manifest["calls"] = len(walls)
	if c.seed == refSeed && firstCSV != refTrainIR {
		rep.mismatch("table1 CSV for seed %d differs from testdata/train-ir-seed42.csv", c.seed)
	}
	runS := seconds(walls).median()
	if !c.trace {
		rep.metrics["setup_s"] = seconds(setups).median()
		rep.metrics["run_s"] = runS
		rep.metrics["mem_peak_mb"] = rss.median()
		rep.metrics["ok_ratio"] = 1 - ratio(float64(rep.failed), float64(rep.attempted))
		rep.metrics["accuracy"] = meanTestRate(first)
		fillBatchJob(rep, walls, trainings, runS)
		return rep, nil
	}

	rep.metrics["cpu_util"] = ratio(float64(cpu), float64(cpuWall)*float64(gomaxprocs()))
	rep.metrics["cpu_us_per_req"] = ratio(float64(cpu)/1e3, float64(rep.attempted))
	t := newTracer()
	before := countersNow("train.cld.pulses")
	program0, selftune0 := histSum("hw.circuit.program_ns"), histSum("span.train.selftune")
	var sweeps []time.Duration
	err = repeat(c.budget-budget, 1, func() error {
		start := time.Now()
		r, err := composeTable1(c.seed, t)
		sweeps = append(sweeps, time.Since(start))
		if err != nil {
			return err
		}
		if got := stripFooter(r.CSV()); got != firstCSV {
			rep.mismatch("composed table1 CSV differs from the runner's:\n%s\nwant\n%s", got, firstCSV)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := float64(len(sweeps))
	lt := t.selfTimes()
	var covered time.Duration
	for _, name := range []string{"dataset.gen", "ncs.new", "train.cld", "core.vortex", "ncs.evaluate"} {
		covered += self(lt, name)
	}
	rep.metrics["dataset.gen_s"] = self(lt, "dataset.gen").Seconds() / n
	rep.metrics["train.cld_s"] = self(lt, "train.cld").Seconds() / n
	rep.metrics["core.vortex_s"] = self(lt, "core.vortex").Seconds() / n
	rep.metrics["train.cld_pulses"] = float64(before.since("train.cld.pulses")) / n
	rep.metrics["hw.program_s"] = (histSum("hw.circuit.program_ns") - program0) / 1e9 / n
	rep.metrics["train.selftune_s"] = (histSum("span.train.selftune") - selftune0) / 1e9 / n
	us, err := programVoltageCost(c.seed)
	if err != nil {
		return nil, err
	}
	rep.metrics["irdrop.program_voltage_us"] = us
	traced := seconds(sweeps).median()
	rep.metrics["trace.overhead"] = traced/runS - 1
	rep.metrics["trace.coverage"] = covered.Seconds() / n / runS
	rep.manifest["traced_calls"] = len(sweeps)
	rep.manifest["untraced_run_s"] = runS
	writeTable(c.log, "train-ir", lt)
	fmt.Fprintf(c.log, "  inside core.vortex: train.selftune %.4f s; inside train.cld+core.vortex: hw.program %.4f s per sweep\n",
		rep.metrics["train.selftune_s"], rep.metrics["hw.program_s"])
	logCoverage(c, runS, traced, rep)
	return rep, writeSpans(c, "train-ir", t)
}

// composeTable1 rebuilds the table1 runner at Quick scale from public
// calls, with a span around each layer call.
func composeTable1(seed uint64, t *tracer) (*experiment.Table1Result, error) {
	const (
		rwire, sigma     = 2.5, 0.6
		cldEpochs, mcRun = 20, 2
		sgdEpochs        = 20
	)
	root := t.start("experiment.sweep", noSpan)
	defer t.end(root)
	var train28, test28 *dataset.Set
	if err := t.span("dataset.gen", root, func() error {
		var err error
		cfg := dataset.DefaultConfig()
		if train28, err = dataset.GenerateBalanced(cfg, 25, rng.New(seed)); err != nil {
			return err
		}
		test28, err = dataset.GenerateBalanced(cfg, 15, rng.New(seed+1))
		return err
	}); err != nil {
		return nil, err
	}
	res := &experiment.Table1Result{RWire: rwire, Sigma: sigma, Redundancy: 100}
	for _, factor := range table1Sizes {
		var trainSet, testSet *dataset.Set
		if err := t.span("dataset.gen", root, func() error {
			var err error
			if trainSet, err = dataset.Undersample(train28, factor, dataset.Decimate); err != nil {
				return err
			}
			testSet, err = dataset.Undersample(test28, factor, dataset.Decimate)
			return err
		}); err != nil {
			return nil, err
		}
		inputs := trainSet.Features()
		res.Sizes = append(res.Sizes, inputs)
		red := max(res.Redundancy*inputs/784, 4)
		build := func(redundancy int, rw float64) (*ncs.NCS, error) {
			var n *ncs.NCS
			err := t.span("ncs.new", root, func() error {
				cfg := ncs.DefaultConfig(inputs, dataset.NumClasses)
				cfg.Backend, cfg.Sigma, cfg.RWire, cfg.Redundancy, cfg.ADCBits = hw.Circuit, sigma, rw, redundancy, 6
				var err error
				n, err = ncs.New(cfg, rng.New(seed+uint64(2*factor)))
				return err
			})
			return n, err
		}
		evaluate := func(n *ncs.NCS) (float64, error) {
			var r float64
			err := t.span("ncs.evaluate", root, func() error {
				var err error
				r, err = n.Evaluate(testSet)
				return err
			})
			return r, err
		}
		cld := func(rw float64) (test, trainRate float64, err error) {
			n, err := build(0, rw)
			if err != nil {
				return 0, 0, err
			}
			var tr *train.Result
			if err := t.span("train.cld", root, func() error {
				var err error
				tr, err = train.CLD(n, trainSet, train.CLDConfig{Epochs: cldEpochs}, rng.New(seed+uint64(3*factor)))
				return err
			}); err != nil {
				return 0, 0, err
			}
			test, err = evaluate(n)
			return test, tr.TrainRate, err
		}

		test, trainRate, err := cld(rwire)
		if err != nil {
			return nil, err
		}
		res.CLDIRTest = append(res.CLDIRTest, test)
		res.CLDIRTrain = append(res.CLDIRTrain, trainRate)

		nV, err := build(red, rwire)
		if err != nil {
			return nil, err
		}
		var vr *core.VortexResult
		if err := t.span("core.vortex", root, func() error {
			vcfg := core.DefaultVortexConfig()
			vcfg.SGD.Epochs = sgdEpochs
			vcfg.SelfTune = train.SelfTuneConfig{MCRuns: mcRun, SGD: vcfg.SGD}
			var err error
			vr, err = core.TrainVortex(nV, trainSet, vcfg, rng.New(seed+uint64(5*factor)))
			return err
		}); err != nil {
			return nil, err
		}
		test, err = evaluate(nV)
		if err != nil {
			return nil, err
		}
		res.VortexIRTest = append(res.VortexIRTest, test)
		res.VortexIRTrain = append(res.VortexIRTrain, vr.TrainRate)

		test, trainRate, err = cld(0)
		if err != nil {
			return nil, err
		}
		res.CLDNoIRTest = append(res.CLDNoIRTest, test)
		res.CLDNoIRTrain = append(res.CLDNoIRTrain, trainRate)
	}
	return res, nil
}

// programVoltageCost times irdrop's V/2 programming solve on the
// Vortex array of the 196-row size (r_wire 2.5 Ω) and returns the
// median µs per call over passes across every cell.
func programVoltageCost(seed uint64) (float64, error) {
	cfg := ncs.DefaultConfig(196, dataset.NumClasses)
	cfg.Sigma, cfg.RWire, cfg.Redundancy = 0.6, 2.5, 25
	n, err := ncs.New(cfg, rng.New(seed))
	if err != nil {
		return 0, err
	}
	nw := irdrop.NewNetwork(n.Pos.Conductances(), cfg.RWire)
	v := cfg.Model.Vprog
	per := make(sample, 0, 5)
	for pass := 0; pass < 5; pass++ {
		start := time.Now()
		for a := 0; a < nw.Rows; a++ {
			for b := 0; b < nw.Cols; b++ {
				if _, err := nw.ProgramVoltage(a, b, v); err != nil {
					return 0, err
				}
			}
		}
		per = append(per, float64(time.Since(start))/1e3/float64(nw.Rows*nw.Cols))
	}
	return per.median(), nil
}
