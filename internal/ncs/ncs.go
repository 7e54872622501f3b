// Package ncs assembles the full neuromorphic computing system of the
// paper: a positive/negative memristor crossbar pair, the digital input
// drivers, the column-current ADCs, the weight/conductance codec and the
// row-mapping indirection that AMP exploits. It provides the inference
// and evaluation path shared by every training scheme.
package ncs

import (
	"errors"
	"fmt"

	"vortex/internal/adc"
	"vortex/internal/dataset"
	"vortex/internal/device"
	"vortex/internal/hw"
	"vortex/internal/mat"
	"vortex/internal/rng"
	"vortex/internal/xbar"
)

// Config describes an NCS instance.
type Config struct {
	Inputs     int     // logical input neurons (pixels)
	Outputs    int     // output neurons (classes)
	Redundancy int     // extra physical rows available to AMP
	Vread      float64 // read voltage amplitude; default 1 V
	ADCBits    int     // output ADC resolution; 0 = ideal sensing
	ADCMax     float64 // output ADC full scale [A]; 0 = auto
	WMax       float64 // weight full scale; default 1
	WriteLvls  int     // programming-DAC levels per polarity; 0 = continuous

	// Backend is ignored: both crossbars are always circuit arrays
	// (xbar.Crossbar).
	//
	// Deprecated: kept so existing callers compile; see hw.Backend.
	Backend hw.Backend

	// Device and array parameters.
	Model      device.SwitchModel
	RWire      float64
	Sigma      float64
	SigmaCycle float64
	DefectRate float64
	Disturb    bool
}

// DefaultConfig returns the paper's evaluation setup for a given logical
// size: 1 V digital inputs, 6-bit output ADCs, the default switch model
// (Ron 10k / Roff 1M).
func DefaultConfig(inputs, outputs int) Config {
	return Config{
		Inputs:  inputs,
		Outputs: outputs,
		Vread:   1.0,
		ADCBits: 6,
		Model:   device.DefaultSwitchModel(),
	}
}

func (c Config) withDefaults() Config {
	if c.Vread == 0 {
		c.Vread = 1.0
	}
	if c.WMax == 0 {
		c.WMax = 1.0
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Inputs <= 0 || c.Outputs <= 0 {
		return errors.New("ncs: non-positive dimensions")
	}
	if c.Redundancy < 0 {
		return errors.New("ncs: negative redundancy")
	}
	if c.Vread <= 0 {
		return errors.New("ncs: non-positive read voltage")
	}
	if c.ADCBits < 0 {
		return errors.New("ncs: negative ADC bits")
	}
	if c.DefectRate < 0 || c.DefectRate >= 1 {
		return fmt.Errorf("ncs: defect rate %v out of [0,1)", c.DefectRate)
	}
	return c.Model.Validate()
}

// NCS is one fabricated system instance. The crossbar pair is held
// behind the hardware-abstraction boundary: Pos and Neg are hw.Array
// values (circuit arrays from xbar.New).
type NCS struct {
	cfg    Config
	Pos    hw.Array // positive weight array
	Neg    hw.Array // negative weight array
	codec  Codec
	chain  *adc.SenseChain
	rowMap []int // logical row -> physical row

	// cached effective read weights; invalidated by programming
	weffPos, weffNeg *mat.Matrix

	// reusable scoring scratch (physical drive vector and per-array
	// column currents), so steady-state Scores/Evaluate loops allocate
	// only their outputs. An NCS, like the arrays under it, is not safe
	// for concurrent use; Monte-Carlo loops give each trial its own.
	scrV, scrIP, scrIN []float64
}

// New fabricates an NCS; the rng source drives fabrication variation for
// both arrays.
func New(cfg Config, src *rng.Source) (*NCS, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, errors.New("ncs: nil rng source")
	}
	physRows := cfg.Inputs + cfg.Redundancy
	xc := hw.Config{
		Rows:       physRows,
		Cols:       cfg.Outputs,
		Model:      cfg.Model,
		RWire:      cfg.RWire,
		Sigma:      cfg.Sigma,
		SigmaCycle: cfg.SigmaCycle,
		DefectRate: cfg.DefectRate,
		Disturb:    cfg.Disturb,
	}
	pos, err := xbar.New(xc, src.Split())
	if err != nil {
		return nil, err
	}
	neg, err := xbar.New(xc, src.Split())
	if err != nil {
		return nil, err
	}
	codec, err := NewCodec(1/cfg.Model.Ron, 1/cfg.Model.Roff, cfg.WMax)
	if err != nil {
		return nil, err
	}
	chain, err := senseChainFor(cfg, codec)
	if err != nil {
		return nil, err
	}
	return &NCS{
		cfg:    cfg,
		Pos:    pos,
		Neg:    neg,
		codec:  codec,
		chain:  chain,
		rowMap: IdentityMap(cfg.Inputs),
	}, nil
}

// senseChainFor builds the output sensing chain of a configuration —
// shared by the per-trial NCS and the trial-batched TrialSet so the two
// paths quantize identically.
func senseChainFor(cfg Config, codec Codec) (*adc.SenseChain, error) {
	if cfg.ADCBits == 0 {
		return adc.Ideal(), nil
	}
	max := cfg.ADCMax
	if max == 0 {
		// The output is sensed differentially (I+ - I-), so the ADC
		// range covers the differential span, not the single-array
		// common mode. Auto full scale: +/- 8 weight-score units
		// (score = Idiff * WMax / (Vread*(GOn-GOff))) — trained
		// margins target +/-1, so this leaves generous headroom for
		// variation-inflated scores while keeping the 6-bit LSB
		// (0.25 score units) below the class-score gaps. That is what
		// reproduces the paper's Fig. 8 saturation at 6 bits.
		max = 8 * cfg.Vread * (codec.GOn - codec.GOff) / codec.WMax
	}
	conv, err := adc.NewConverter(cfg.ADCBits, -max, max)
	if err != nil {
		return nil, err
	}
	return adc.NewSenseChain(conv, 1, nil), nil
}

// Config returns the NCS configuration (with defaults resolved).
func (n *NCS) Config() Config { return n.cfg }

// Codec returns the weight/conductance codec.
func (n *NCS) Codec() Codec { return n.codec }

// PhysRows returns the number of physical crossbar rows.
func (n *NCS) PhysRows() int { return n.cfg.Inputs + n.cfg.Redundancy }

// RowMap returns a copy of the current logical-to-physical row map.
func (n *NCS) RowMap() []int { return append([]int(nil), n.rowMap...) }

// SetRowMap installs a logical-to-physical row assignment (from AMP).
// Entries must be unique and within the physical row count.
func (n *NCS) SetRowMap(m []int) error {
	if len(m) != n.cfg.Inputs {
		return errors.New("ncs: row map length mismatch")
	}
	seen := make([]bool, n.PhysRows())
	for _, p := range m {
		if p < 0 || p >= n.PhysRows() {
			return fmt.Errorf("ncs: row map entry %d out of range", p)
		}
		if seen[p] {
			return fmt.Errorf("ncs: duplicate row map entry %d", p)
		}
		seen[p] = true
	}
	n.rowMap = append([]int(nil), m...)
	n.Invalidate()
	return nil
}

// Invalidate drops the cached effective read weights; call after any
// direct programming of the arrays.
func (n *NCS) Invalidate() {
	n.weffPos, n.weffNeg = nil, nil
}

// ProgramWeights encodes and programs a logical weight matrix (Inputs x
// Outputs) into both arrays through the current row map. Unmapped
// (redundant) rows are driven to HRS.
func (n *NCS) ProgramWeights(w *mat.Matrix, opts hw.ProgramOptions) error {
	if w.Rows != n.cfg.Inputs || w.Cols != n.cfg.Outputs {
		return errors.New("ncs: weight matrix dimension mismatch")
	}
	if n.cfg.WriteLvls > 0 {
		// Write-precision limit: snap every weight to the programming
		// DAC's representable grid before encoding.
		q := w.Clone()
		for i := range q.Data {
			q.Data[i] = n.codec.QuantizeLevels(q.Data[i], n.cfg.WriteLvls)
		}
		w = q
	}
	pos, neg, err := n.codec.TargetResistances(w, n.rowMap, n.PhysRows())
	if err != nil {
		return err
	}
	if err := n.Pos.ProgramTargets(pos, opts); err != nil {
		return err
	}
	if err := n.Neg.ProgramTargets(neg, opts); err != nil {
		return err
	}
	n.Invalidate()
	return nil
}

// effective returns (computing if needed) the cached effective read
// weight matrices of both arrays.
func (n *NCS) effective() (pos, neg *mat.Matrix, err error) {
	if n.weffPos == nil {
		n.weffPos, err = n.Pos.EffectiveWeights()
		if err != nil {
			return nil, nil, err
		}
	}
	if n.weffNeg == nil {
		n.weffNeg, err = n.Neg.EffectiveWeights()
		if err != nil {
			return nil, nil, err
		}
	}
	return n.weffPos, n.weffNeg, nil
}

// driveVectorInto expands a logical input vector to physical row
// voltages through the row map, writing into dst (length PhysRows).
// Unmapped (redundant) rows are driven at 0 V.
func (n *NCS) driveVectorInto(dst, x []float64) {
	for i := range dst {
		dst[i] = 0
	}
	for i, p := range n.rowMap {
		xi := x[i]
		if xi < 0 {
			xi = 0
		} else if xi > 1 {
			xi = 1
		}
		dst[p] = xi * n.cfg.Vread
	}
}

// Scores returns the sensed, codec-scaled output scores for a logical
// input vector in [0,1]^Inputs: score_j ~ sum_i x_i*w_ij under ideal
// conditions. The positive and negative column currents are each sensed
// through the output ADC before differencing, as in the hardware.
func (n *NCS) Scores(x []float64) ([]float64, error) {
	return n.ScoresThrough(x, n.chain)
}

// ScoresThrough computes scores sensed through a caller-provided chain
// instead of the system's output ADC. Close-loop training uses it with a
// higher-resolution converter — the costly sensing path the paper calls
// out as CLD's hardware overhead (Sec. 1, Sec. 3.3). A nil chain means
// ideal sensing.
func (n *NCS) ScoresThrough(x []float64, chain *adc.SenseChain) ([]float64, error) {
	out := make([]float64, n.cfg.Outputs)
	if err := n.scoresInto(out, x, chain); err != nil {
		return nil, err
	}
	return out, nil
}

// scoresInto is the allocation-free scoring core shared by Scores,
// ScoresBatch and Evaluate: drive expansion and both per-array reads run
// in the NCS's reusable scratch buffers.
func (n *NCS) scoresInto(dst, x []float64, chain *adc.SenseChain) error {
	if len(x) != n.cfg.Inputs {
		return errors.New("ncs: input length mismatch")
	}
	if chain == nil {
		chain = adc.Ideal()
	}
	wp, wn, err := n.effective()
	if err != nil {
		return err
	}
	if len(n.scrV) != n.PhysRows() {
		n.scrV = make([]float64, n.PhysRows())
		n.scrIP = make([]float64, n.cfg.Outputs)
		n.scrIN = make([]float64, n.cfg.Outputs)
	}
	n.driveVectorInto(n.scrV, x)
	wp.MulVecTo(n.scrIP, n.scrV)
	wn.MulVecTo(n.scrIN, n.scrV)
	scale := n.codec.Scale(n.cfg.Vread)
	for j := range dst {
		// Differential sensing: the column pair's current difference is
		// formed in analog and quantized once.
		dst[j] = chain.Sense(n.scrIP[j]-n.scrIN[j]) * scale
	}
	return nil
}

// ScoresBatch computes output scores for a batch of logical input
// vectors in one call — the digit-batch evaluation path. The effective
// weights are resolved once for the whole batch and every per-sample
// buffer is reused, so per-sample cost drops to two matrix-vector
// products. The returned rows share one backing allocation.
func (n *NCS) ScoresBatch(xs [][]float64) ([][]float64, error) {
	out := hw.AllocBatch(len(xs), n.cfg.Outputs)
	for k, x := range xs {
		if err := n.scoresInto(out[k], x, n.chain); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// OutputFullScale returns the output ADC's full-scale current (the auto-
// ranged value when the configuration left it zero), or 0 for ideal
// sensing.
func (n *NCS) OutputFullScale() float64 {
	if n.chain.ADC == nil {
		return 0
	}
	_, max := n.chain.ADC.Range()
	return max
}

// Classify returns the argmax class for an input.
func (n *NCS) Classify(x []float64) (int, error) {
	s, err := n.Scores(x)
	if err != nil {
		return 0, err
	}
	return mat.ArgMax(s), nil
}

// Evaluate returns the fraction of samples in the set classified
// correctly (the paper's "test rate" when given test samples and
// "training rate" when given the training samples). It runs on the
// batched scoring path: effective weights are resolved once and one
// score buffer is reused across the whole set, so evaluation allocates
// nothing per sample.
func (n *NCS) Evaluate(set *dataset.Set) (float64, error) {
	if set.Len() == 0 {
		return 0, errors.New("ncs: empty evaluation set")
	}
	scores := make([]float64, n.cfg.Outputs)
	correct := 0
	for _, s := range set.Samples {
		if err := n.scoresInto(scores, s.Pixels, n.chain); err != nil {
			return 0, err
		}
		if mat.ArgMax(scores) == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(set.Len()), nil
}

// VerifyOutcome pairs the per-array verify reports of one
// ProgramWeightsVerify pass on a crossbar pair.
type VerifyOutcome struct {
	Pos, Neg hw.VerifyReport
}

// Failed returns the total number of cells, across both arrays, that did
// not converge to their target.
func (o VerifyOutcome) Failed() int { return o.Pos.Failed() + o.Neg.Failed() }

// Worst returns the worse of the two arrays' worst residuals.
func (o VerifyOutcome) Worst() float64 {
	if o.Neg.Worst > o.Pos.Worst {
		return o.Neg.Worst
	}
	return o.Pos.Worst
}

// FailedMapped counts non-converged cells restricted to the physical
// rows a logical row is currently mapped to. Failures on unmapped
// (redundant) rows carry no weight and do not degrade inference — a
// stuck-LRS cell on a spare row simply cannot be parked at HRS — so
// repair policies judge a reprogramming pass by this count, not Failed.
func (n *NCS) FailedMapped(o VerifyOutcome) int {
	mapped := make([]bool, n.PhysRows())
	for _, p := range n.rowMap {
		mapped[p] = true
	}
	cols := n.cfg.Outputs
	count := 0
	for _, rep := range []hw.VerifyReport{o.Pos, o.Neg} {
		if len(rep.Verdicts) != n.PhysRows()*cols {
			continue
		}
		for q := 0; q < n.PhysRows(); q++ {
			if !mapped[q] {
				continue
			}
			for j := 0; j < cols; j++ {
				if rep.Verdicts[q*cols+j] != hw.VerdictConverged {
					count++
				}
			}
		}
	}
	return count
}

// ProgramWeightsVerify programs a logical weight matrix with the
// per-cell program-and-verify loop (xbar.ProgramVerify) instead of one
// open-loop pass: each device's offset — parametric variation plus any
// accumulated drift — is measured and canceled up to the verify
// tolerance. This is the refresh primitive for aged systems and the
// reprogramming step of the fault-repair pipeline. The returned outcome
// carries both arrays' verify reports (worst residual, per-cell
// verdicts, give-up counts).
func (n *NCS) ProgramWeightsVerify(w *mat.Matrix, vopts hw.VerifyOptions) (VerifyOutcome, error) {
	var out VerifyOutcome
	if w.Rows != n.cfg.Inputs || w.Cols != n.cfg.Outputs {
		return out, errors.New("ncs: weight matrix dimension mismatch")
	}
	pos, neg, err := n.codec.TargetResistances(w, n.rowMap, n.PhysRows())
	if err != nil {
		return out, err
	}
	if out.Pos, err = n.Pos.ProgramVerify(pos, vopts); err != nil {
		return VerifyOutcome{}, err
	}
	if out.Neg, err = n.Neg.ProgramVerify(neg, vopts); err != nil {
		return VerifyOutcome{}, err
	}
	n.Invalidate()
	return out, nil
}

// InitDrift initializes retention drift on both arrays. The two arrays
// draw independent drift populations. It errors when the configured
// backend does not model retention drift (hw.Ager).
func (n *NCS) InitDrift(model device.DriftModel, src *rng.Source) error {
	if src == nil {
		return errors.New("ncs: nil rng source")
	}
	pos, neg, err := n.agers()
	if err != nil {
		return err
	}
	if err := pos.InitDrift(model, src.Split()); err != nil {
		return err
	}
	return neg.InitDrift(model, src.Split())
}

// AgeTo advances both arrays to absolute time t and invalidates the
// cached read map.
func (n *NCS) AgeTo(t float64) error {
	pos, neg, err := n.agers()
	if err != nil {
		return err
	}
	if err := pos.AgeTo(t); err != nil {
		return err
	}
	if err := neg.AgeTo(t); err != nil {
		return err
	}
	n.Invalidate()
	return nil
}

// agers asserts the retention-drift capability on both arrays.
func (n *NCS) agers() (hw.Ager, hw.Ager, error) {
	pos, ok := n.Pos.(hw.Ager)
	neg, ok2 := n.Neg.(hw.Ager)
	if !ok || !ok2 {
		return nil, nil, errors.New("ncs: arrays do not model retention drift")
	}
	return pos, neg, nil
}

// DecodedWeights reads back the logical weight matrix currently
// represented by the arrays (through the row map), using the observable
// conductances. This is a modeling convenience for analysis, not a
// hardware observation.
func (n *NCS) DecodedWeights() *mat.Matrix {
	gp := n.Pos.Conductances()
	gn := n.Neg.Conductances()
	w := mat.NewMatrix(n.cfg.Inputs, n.cfg.Outputs)
	for i, p := range n.rowMap {
		for j := 0; j < n.cfg.Outputs; j++ {
			w.Set(i, j, n.codec.Decode(gp.At(p, j), gn.At(p, j)))
		}
	}
	return w
}
