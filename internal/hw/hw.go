// Package hw is the hardware-abstraction layer between the device/array
// substrate and everything above it (ncs, train, core, fault,
// experiment). It owns the vocabulary every crossbar simulation shares —
// array configuration, programming pulses and options, verify options
// and reports, programming-cost counters — and defines the Array
// interface the rest of the stack programs against.
//
// One physics implementation sits behind Array: the circuit backend
// (xbar.Crossbar), with per-cell device objects, the full switching
// model, the IR-drop parasitic network, half-select disturb, retention
// drift and endurance wear. At RWire = 0 its read is the ideal-wire
// product y = x·W against a cached conductance matrix.
//
// TrialBatch (batch.go) is not a second backend but the
// structure-of-arrays kernel for Monte-Carlo ensembles: many ideal-wire
// arrays that share a programming history and differ only in their
// fabrication draws, read through the fused lane kernels of package mat.
// Each lane is bit-identical to a circuit array fabricated from the same
// source; NewTrialBatch rejects every configuration where that does not
// hold.
package hw

import (
	"errors"
	"fmt"

	"vortex/internal/adc"
	"vortex/internal/device"
	"vortex/internal/mat"
	"vortex/internal/rng"
)

// Config describes a crossbar array instance.
type Config struct {
	Rows, Cols int
	Model      device.SwitchModel
	RWire      float64 // per-segment wire resistance [Ohm]; 0 = ideal wires
	Sigma      float64 // lognormal parametric variation (device-to-device)
	SigmaCycle float64 // cycle-to-cycle switching variation; usually << Sigma
	DefectRate float64 // probability of a stuck-at cell (split evenly LRS/HRS)
	Disturb    bool    // model half-select disturb during programming
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Rows <= 0 || c.Cols <= 0 {
		return errors.New("hw: non-positive dimensions")
	}
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.RWire < 0 {
		return errors.New("hw: negative wire resistance")
	}
	if c.Sigma < 0 || c.SigmaCycle < 0 {
		return errors.New("hw: negative variation sigma")
	}
	if c.DefectRate < 0 || c.DefectRate >= 1 {
		return errors.New("hw: defect rate out of [0,1)")
	}
	return nil
}

// CellPulse addresses one device with a pre-computed pulse.
type CellPulse struct {
	Row, Col int
	Pulse    device.Pulse
}

// ProgramOptions control a programming pass.
type ProgramOptions struct {
	// CompensateIR pre-solves the delivered voltage at each selected cell
	// and stretches the pulse width so the nominal target is hit despite
	// IR-drop (the compensation technique of paper reference [10], which
	// OLD and Vortex use). Without it the raw pulse is applied at the
	// degraded voltage — the CLD situation, where Eq. (2)'s beta and D
	// effects emerge. It has no effect at RWire = 0.
	CompensateIR bool
}

// VerifyOptions controls program-and-verify array programming.
type VerifyOptions struct {
	Program ProgramOptions  // options for the underlying pulses
	Chain   *adc.SenseChain // per-cell sense path; nil = ideal
	Vread   float64         // cell read voltage during verify; default 1 V
	MaxIter int             // correction rounds per cell; default 5
	TolLog  float64         // acceptance band on |ln(R/Rt)|; default 0.05

	// Patience bounds the retries spent on a cell that is not getting
	// closer to its target: after this many consecutive non-improving
	// correction rounds the cell is abandoned with VerdictStuck instead
	// of burning the rest of the MaxIter budget. Stuck-at, open and
	// wear-collapsed devices exit after Patience rounds; oscillating
	// cells (e.g. at a coarse sense ADC's quantization floor) likewise.
	// Default 2; negative disables the guard.
	Patience int
}

// WithDefaults resolves the zero values to the documented defaults.
func (o VerifyOptions) WithDefaults() VerifyOptions {
	if o.Chain == nil {
		o.Chain = adc.Ideal()
	}
	if o.Vread <= 0 {
		o.Vread = 1
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 5
	}
	if o.TolLog <= 0 {
		o.TolLog = 0.05
	}
	if o.Patience == 0 {
		o.Patience = 2
	}
	return o
}

// CellVerdict classifies the outcome of the per-cell verify loop.
type CellVerdict uint8

const (
	// VerdictConverged means the cell landed within TolLog of its target.
	VerdictConverged CellVerdict = iota
	// VerdictExhausted means the cell spent the full MaxIter budget while
	// still improving, but ended outside the tolerance band.
	VerdictExhausted
	// VerdictStuck means the loop gave up early: Patience consecutive
	// correction rounds produced no residual improvement (a stuck-at,
	// open or wear-collapsed device, or an unreachable target).
	VerdictStuck
)

// String implements fmt.Stringer.
func (v CellVerdict) String() string {
	switch v {
	case VerdictConverged:
		return "converged"
	case VerdictExhausted:
		return "exhausted"
	case VerdictStuck:
		return "stuck"
	default:
		return fmt.Sprintf("CellVerdict(%d)", uint8(v))
	}
}

// VerifyReport summarizes a ProgramVerify pass. Worst is the largest
// remaining |ln(Robs/Rt)| across the array; the counters partition the
// cells by verdict so callers can distinguish "everything converged"
// from "some cells gave up" — the distinction the repair pipeline keys
// on. Verdicts holds the per-cell outcome in row-major order.
type VerifyReport struct {
	Worst     float64       // worst remaining |ln(Robs/Rt)|
	Converged int           // cells within TolLog
	Exhausted int           // cells that ran out of MaxIter
	Stuck     int           // cells abandoned early by the Patience guard
	Verdicts  []CellVerdict // per-cell verdicts, row-major
}

// Failed returns the number of cells that did not converge.
func (r VerifyReport) Failed() int { return r.Exhausted + r.Stuck }

// Merge folds another report into this one (used to combine the
// positive and negative arrays of a crossbar pair). Verdict slices are
// not concatenated — per-cell geometry differs between arrays — so
// Merge keeps only the counters and the worst residual.
func (r *VerifyReport) Merge(other VerifyReport) {
	if other.Worst > r.Worst {
		r.Worst = other.Worst
	}
	r.Converged += other.Converged
	r.Exhausted += other.Exhausted
	r.Stuck += other.Stuck
}

// ProgramStats accumulates the hardware cost of programming operations on
// an array — the quantities behind the paper's motivation that OLD
// needs one cheap pass while CLD pays for many program-and-sense
// iterations (Sec. 1, Sec. 4).
type ProgramStats struct {
	Batches    int     // programming batches issued
	Pulses     int     // individual cell pulses applied
	PulseTime  float64 // summed pulse widths [s]
	Energy     float64 // estimated selected-cell programming energy [J]
	HalfSelect float64 // summed half-select exposure [cell*s], when disturb is modeled
}

// Add accumulates other into s.
func (s *ProgramStats) Add(other ProgramStats) {
	s.Batches += other.Batches
	s.Pulses += other.Pulses
	s.PulseTime += other.PulseTime
	s.Energy += other.Energy
	s.HalfSelect += other.HalfSelect
}

// Array is the substrate boundary: one crossbar array of memristive
// cells, whatever simulates it underneath. Everything above the device
// layer (ncs, train, core, fault, experiment) programs against this
// interface; xbar.New fabricates the one implementation.
//
// An Array is not safe for concurrent use; Monte-Carlo loops give each
// trial its own instance.
type Array interface {
	// Rows returns the number of word lines.
	Rows() int
	// Cols returns the number of bit lines.
	Cols() int
	// Read returns the sensed column currents for row voltages v.
	Read(v []float64) ([]float64, error)
	// ReadInto computes the sensed column currents for row voltages v
	// into dst (length Cols). It is the steady-state hot path: arrays
	// keep reusable solver workspaces and cached conductance state so
	// repeated calls on an unchanged array allocate nothing.
	ReadInto(dst, v []float64) error
	// ReadBatch reads a batch of input vectors in one call, returning
	// one output row per input. Arrays amortize solver setup across
	// the batch (and, with wire parasitics, warm-start each solve
	// from the previous one), so per-read cost drops for digit-batch
	// evaluation loops. The returned rows share one backing allocation.
	ReadBatch(vins [][]float64) ([][]float64, error)
	// EffectiveWeights returns the exact linear read map of the current
	// array state: Read(v) = W^T v for the returned W. For an ideal-wire
	// array it is the conductance matrix itself.
	EffectiveWeights() (*mat.Matrix, error)
	// Conductances returns a snapshot of the observable conductance
	// matrix (including parametric variation and defects). Callers own
	// the returned matrix.
	Conductances() *mat.Matrix
	// ProgramBatch applies a batch of cell pulses under the V/2 scheme.
	ProgramBatch(pulses []CellPulse, opts ProgramOptions) error
	// ProgramTargets programs the whole array to the target resistance
	// matrix (in ohms) with one open-loop pulse per cell.
	ProgramTargets(targets *mat.Matrix, opts ProgramOptions) error
	// ProgramVerify programs the array with a per-cell
	// program-and-verify loop that measures and cancels each device's
	// offset up to the verify tolerance.
	ProgramVerify(targets *mat.Matrix, opts VerifyOptions) (VerifyReport, error)
	// Pretest implements AMP pre-testing (paper Sec. 4.2.1): program
	// every cell to the target against an HRS background, sense it
	// senses times through the chain, restore it, and report the
	// estimated per-cell variation factor e^theta.
	Pretest(target float64, senses int, chain *adc.SenseChain) (*mat.Matrix, error)
	// ResetAll drives every healthy cell back to HRS instantly.
	ResetAll()
	// Stats returns the accumulated programming cost since fabrication
	// or the last ResetStats.
	Stats() ProgramStats
	// ResetStats clears the cost counters.
	ResetStats()
}

// AllocBatch carves n rows of cols float64s out of one backing
// allocation — the output shape shared by every ReadBatch
// implementation (two mallocs per batch regardless of batch size).
func AllocBatch(n, cols int) [][]float64 {
	backing := make([]float64, n*cols)
	out := make([][]float64, n)
	for i := range out {
		out[i] = backing[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return out
}

// Ager is the optional retention-drift capability: arrays that model
// per-cell drift exponents and an array clock implement it. Callers
// type-assert and surface a descriptive error when an array cannot age.
type Ager interface {
	InitDrift(model device.DriftModel, src *rng.Source) error
	AgeTo(t float64) error
	Age() float64
}

// DefectAccessor is the optional per-cell defect capability fault
// injection needs: read and convert individual cells to stuck/open
// states.
type DefectAccessor interface {
	Defect(i, j int) device.DefectKind
	SetDefect(i, j int, k device.DefectKind)
}

// CellAccessor exposes the underlying per-cell device objects; wear
// modeling and white-box tests need it.
type CellAccessor interface {
	Cell(i, j int) *device.Memristor
}

// Backend named the Array implementation an NCS was fabricated on when
// there were two.
//
// Deprecated: the circuit backend is the only one. Backend, Circuit
// and Analytic remain so existing callers compile; nothing branches on
// them.
type Backend int

const (
	// Circuit is the circuit backend (xbar.Crossbar).
	//
	// Deprecated: see Backend.
	Circuit Backend = iota

	// Analytic is an alias of Circuit: the ideal-wire read it used to
	// duplicate is the circuit backend's read at RWire = 0.
	//
	// Deprecated: see Backend.
	Analytic = Circuit
)
