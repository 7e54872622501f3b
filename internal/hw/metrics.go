package hw

import (
	"sync"
	"time"

	"vortex/internal/obs"
)

// Metrics is the instrumentation bundle the hardware layer records
// into: operation counters (reads, programming pulses/batches, verify
// correction rounds) plus per-op latency histograms, all named
// "hw.<kind>.<metric>" in the process-default obs registry. The kinds
// are "circuit" (every xbar.Crossbar) and "trialbatch" (the SoA
// ensemble kernel). Every array of a kind shares one bundle, so a
// Monte-Carlo sweep's thousands of short-lived arrays aggregate into a
// handful of series, and the snapshot shows how the work split between
// the per-trial and the vectorized path.
//
// Counters and histograms are atomic; bundles are safe to share across
// the parallel trial workers. All methods are nil-receiver safe.
type Metrics struct {
	reads        *obs.Counter
	readNS       *obs.Histogram
	batchReads   *obs.Counter
	batchReadNS  *obs.Histogram
	pulses       *obs.Counter
	batches      *obs.Counter
	programNS    *obs.Histogram
	verifyCells  *obs.Counter
	verifyIters  *obs.Counter
	verifyNS     *obs.Histogram
	solverSweeps *obs.Histogram

	batchTrials      *obs.Counter
	batchFabricateNS *obs.Histogram
	batchBuildNS     *obs.Histogram
	batchScoresNS    *obs.Histogram
	batchProgramNS   *obs.Histogram
}

var (
	metricsMu sync.Mutex
	metricsBy = map[string]*Metrics{}
)

// CircuitKind is the metrics kind of circuit arrays (xbar.Crossbar),
// whose series are named "hw.circuit.<metric>".
const CircuitKind = "circuit"

// MetricsFor returns the shared metrics bundle of an array kind
// ("circuit", "trialbatch"), creating it on first use.
func MetricsFor(kind string) *Metrics {
	return metricsForPrefix("hw." + kind + ".")
}

// ArrayPrefix is the obs metric namespace of one identified array of a
// kind: "hw.<kind>.<array-id>.". Layers that track many long-lived
// arrays at once (the fleet) derive their per-array series names from it
// so they cannot collide with the per-kind aggregates or with each
// other; MetricsForArray uses the same prefix for the standard bundle.
func ArrayPrefix(kind, arrayID string) string {
	return "hw." + kind + "." + arrayID + "."
}

// MetricsForArray returns the metrics bundle of one identified array,
// namespaced per ArrayPrefix ("hw.<kind>.<array-id>.<metric>") in the
// process-default registry, creating it on first use. Unlike the
// per-kind MetricsFor bundle — which aggregates every short-lived
// Monte-Carlo array of a kind into one series — a per-array bundle
// gives a long-lived array (a fleet member) its own series, so its
// health trajectory is observable in isolation.
func MetricsForArray(kind, arrayID string) *Metrics {
	return metricsForPrefix(ArrayPrefix(kind, arrayID))
}

// metricsForPrefix builds (or returns the cached) bundle whose series
// all share the given name prefix.
func metricsForPrefix(prefix string) *Metrics {
	metricsMu.Lock()
	defer metricsMu.Unlock()
	if m, ok := metricsBy[prefix]; ok {
		return m
	}
	reg := obs.Default()
	m := &Metrics{
		reads:        reg.Counter(prefix + "reads"),
		readNS:       reg.Histogram(prefix + "read_ns"),
		batchReads:   reg.Counter(prefix + "batch_reads"),
		batchReadNS:  reg.Histogram(prefix + "batch_read_ns"),
		pulses:       reg.Counter(prefix + "pulses"),
		batches:      reg.Counter(prefix + "batches"),
		programNS:    reg.Histogram(prefix + "program_ns"),
		verifyCells:  reg.Counter(prefix + "verify.cells"),
		verifyIters:  reg.Counter(prefix + "verify.iters"),
		verifyNS:     reg.Histogram(prefix + "verify_ns"),
		solverSweeps: reg.Histogram(prefix + "solver.sweeps"),

		batchTrials:      reg.Counter(prefix + "batch.trials"),
		batchFabricateNS: reg.Histogram(prefix + "batch.fabricate_ns"),
		batchBuildNS:     reg.Histogram(prefix + "batch.tensor_build_ns"),
		batchScoresNS:    reg.Histogram(prefix + "batch.scores_ns"),
		batchProgramNS:   reg.Histogram(prefix + "batch.program_ns"),
	}
	metricsBy[prefix] = m
	return m
}

// Start opens a latency measurement. It returns the zero time when
// instrumentation is disabled so the matching Observe* skips the
// histogram — the whole probe then costs two atomic loads.
func (m *Metrics) Start() time.Time {
	if m == nil || !obs.Enabled() {
		return time.Time{}
	}
	return time.Now()
}

// ObserveRead accounts one Read (or EffectiveWeights) operation started
// at start.
func (m *Metrics) ObserveRead(start time.Time) {
	if m == nil {
		return
	}
	m.reads.Inc()
	if !start.IsZero() {
		m.readNS.RecordDuration(time.Since(start))
	}
}

// ObserveBatchRead accounts one ReadBatch call of n input vectors
// started at start: the batch-read counter advances by one, the plain
// read counter by n (a batch is n logical reads), and the whole-batch
// latency lands in the batch_read_ns histogram.
func (m *Metrics) ObserveBatchRead(start time.Time, n int) {
	if m == nil {
		return
	}
	m.batchReads.Inc()
	m.reads.Add(int64(n))
	if !start.IsZero() {
		m.batchReadNS.RecordDuration(time.Since(start))
	}
}

// ObserveSolverSweeps records the block-sweep count of one converged
// circuit solve in the solver.sweeps histogram — the series that shows
// warm-started sweeps collapsing versus cold solves. Recording is gated
// on the obs enable flag like the latency histograms.
func (m *Metrics) ObserveSolverSweeps(sweeps int) {
	if m == nil || !obs.Enabled() {
		return
	}
	m.solverSweeps.Record(float64(sweeps))
}

// ObserveProgram accounts one programming batch of n pulses started at
// start.
func (m *Metrics) ObserveProgram(start time.Time, n int) {
	if m == nil {
		return
	}
	m.batches.Inc()
	m.pulses.Add(int64(n))
	if !start.IsZero() {
		m.programNS.RecordDuration(time.Since(start))
	}
}

// ObserveBatchFabricate accounts the fabrication of one TrialBatch of
// trials arrays started at start: the batch.trials counter advances by
// the ensemble size and the whole-batch fabrication latency lands in
// batch.fabricate_ns.
func (m *Metrics) ObserveBatchFabricate(start time.Time, trials int) {
	if m == nil {
		return
	}
	m.batchTrials.Add(int64(trials))
	if !start.IsZero() {
		m.batchFabricateNS.RecordDuration(time.Since(start))
	}
}

// ObserveBatchBuild accounts one lazy rebuild of a trial-lane-group
// conductance tensor started at start.
func (m *Metrics) ObserveBatchBuild(start time.Time) {
	if m == nil {
		return
	}
	if !start.IsZero() {
		m.batchBuildNS.RecordDuration(time.Since(start))
	}
}

// ObserveBatchScores accounts one fused ReadLanesInto over lanes trial
// lanes started at start: the plain read counter advances by lanes (a
// lane read is one logical per-trial read), and the fused-kernel latency
// lands in batch.scores_ns.
func (m *Metrics) ObserveBatchScores(start time.Time, lanes int) {
	if m == nil {
		return
	}
	m.reads.Add(int64(lanes))
	if !start.IsZero() {
		m.batchScoresNS.RecordDuration(time.Since(start))
	}
}

// ObserveBatchProgram accounts one hoisted TrialBatch programming pass
// started at start: pulses pulses were applied once and shared by trials
// arrays, so the pulse and batch counters advance as if each
// trial had been programmed individually (keeping the aggregate series
// comparable to the per-trial path), while the hoisted-pass latency
// lands in batch.program_ns.
func (m *Metrics) ObserveBatchProgram(start time.Time, pulses, trials int) {
	if m == nil {
		return
	}
	m.batches.Add(int64(trials))
	m.pulses.Add(int64(pulses) * int64(trials))
	if !start.IsZero() {
		m.batchProgramNS.RecordDuration(time.Since(start))
	}
}

// ObserveVerify accounts one ProgramVerify pass over cells cells that
// spent iters correction rounds in total.
func (m *Metrics) ObserveVerify(start time.Time, cells, iters int) {
	if m == nil {
		return
	}
	m.verifyCells.Add(int64(cells))
	m.verifyIters.Add(int64(iters))
	if !start.IsZero() {
		m.verifyNS.RecordDuration(time.Since(start))
	}
}
