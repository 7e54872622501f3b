package ncs

import (
	"errors"

	"vortex/internal/adc"
	"vortex/internal/dataset"
	"vortex/internal/hw"
	"vortex/internal/mat"
	"vortex/internal/rng"
)

// TrialSet is the structure-of-arrays counterpart of NCS for Monte-Carlo
// ensembles: one crossbar-pair batch (hw.TrialBatch for the positive and
// negative arrays) holding every trial of an ensemble that shares a
// configuration and a programmed weight matrix, differing only in
// fabrication draws. Inference runs through the fused lane kernels, so
// an evaluation pass costs two batched matrix-vector products per sample
// per lane group instead of 2*trials scalar products.
//
// Equivalence contract: trial t of a TrialSet built from seeds[t] is
// bit-identical to an NCS built as New(cfg, rng.New(seeds[t])) — the
// same source split order (positive array first, then negative), the
// same codec, sensing chain and identity row map, the same programming
// and scoring arithmetic. The batch parity tests assert this across
// seeds and training schemes.
//
// Validity: the trial batch hoists programming across trials, so the
// configuration must have ideal wires and no per-pulse noise (RWire = 0,
// no disturb, SigmaCycle = 0) — hw.NewTrialBatch rejects anything else.
// The row map is the identity: AMP row remapping is a per-trial decision
// and stays on the per-trial path.
//
// A TrialSet, like the NCS it mirrors, is not safe for concurrent use.
type TrialSet struct {
	cfg   Config
	pos   *hw.TrialBatch
	neg   *hw.TrialBatch
	codec Codec
	chain *adc.SenseChain

	// reusable scoring scratch: physical drive vector, per-array fused
	// lane currents, lane scores and lane argmax outputs.
	scrV, scrIP, scrIN, scrS []float64
	scrArg                   []int
}

// NewTrialSet fabricates an ensemble of len(seeds) systems as one
// structure-of-arrays batch, trial t drawing its fabrication variation
// from rng.New(seeds[t]) exactly as New would.
func NewTrialSet(cfg Config, seeds []uint64) (*TrialSet, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(seeds) == 0 {
		return nil, errors.New("ncs: trial set needs at least one seed")
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
	// New's split order per trial: the positive array's source first,
	// then the negative array's.
	posSrcs := make([]*rng.Source, len(seeds))
	negSrcs := make([]*rng.Source, len(seeds))
	for t, seed := range seeds {
		src := rng.New(seed)
		posSrcs[t] = src.Split()
		negSrcs[t] = src.Split()
	}
	pos, err := hw.NewTrialBatch(xc, posSrcs)
	if err != nil {
		return nil, err
	}
	neg, err := hw.NewTrialBatch(xc, negSrcs)
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
	return &TrialSet{cfg: cfg, pos: pos, neg: neg, codec: codec, chain: chain}, nil
}

// Config returns the set's configuration (with defaults resolved).
func (s *TrialSet) Config() Config { return s.cfg }

// Trials returns the ensemble size.
func (s *TrialSet) Trials() int { return s.pos.Trials() }

// PhysRows returns the number of physical crossbar rows per trial.
func (s *TrialSet) PhysRows() int { return s.cfg.Inputs + s.cfg.Redundancy }

// ProgramWeights encodes and programs a logical weight matrix into every
// trial's crossbar pair in one hoisted pass, with NCS.ProgramWeights'
// exact encoding (write-level quantization, identity row map, redundant
// rows to HRS).
func (s *TrialSet) ProgramWeights(w *mat.Matrix, opts hw.ProgramOptions) error {
	if w.Rows != s.cfg.Inputs || w.Cols != s.cfg.Outputs {
		return errors.New("ncs: weight matrix dimension mismatch")
	}
	if s.cfg.WriteLvls > 0 {
		q := w.Clone()
		for i := range q.Data {
			q.Data[i] = s.codec.QuantizeLevels(q.Data[i], s.cfg.WriteLvls)
		}
		w = q
	}
	rowMap := IdentityMap(s.cfg.Inputs)
	pos, neg, err := s.codec.TargetResistances(w, rowMap, s.PhysRows())
	if err != nil {
		return err
	}
	if err := s.pos.ProgramTargets(pos, opts); err != nil {
		return err
	}
	return s.neg.ProgramTargets(neg, opts)
}

// InjectVariation re-draws every trial's parametric variation, trial t
// drawing from rng.New(seeds[t]) with NCS-array split order.
func (s *TrialSet) InjectVariation(sigma float64, seeds []uint64) error {
	if len(seeds) != s.Trials() {
		return errors.New("ncs: variation seed count does not match trials")
	}
	posSrcs := make([]*rng.Source, len(seeds))
	negSrcs := make([]*rng.Source, len(seeds))
	for t, seed := range seeds {
		src := rng.New(seed)
		posSrcs[t] = src.Split()
		negSrcs[t] = src.Split()
	}
	if err := s.pos.InjectVariation(sigma, posSrcs); err != nil {
		return err
	}
	return s.neg.InjectVariation(sigma, negSrcs)
}

// driveVectorInto expands a logical input vector to physical row
// voltages — NCS.driveVectorInto with the identity row map. Only the
// redundant tail needs pre-zeroing; the logical rows are all overwritten.
func (s *TrialSet) driveVectorInto(dst, x []float64) {
	for i := len(x); i < len(dst); i++ {
		dst[i] = 0
	}
	vread := s.cfg.Vread
	for i := range x {
		xi := x[i]
		if xi < 0 {
			xi = 0
		} else if xi > 1 {
			xi = 1
		}
		dst[i] = xi * vread
	}
}

// scratch sizes the reusable scoring buffers.
func (s *TrialSet) scratch() {
	if len(s.scrV) == s.PhysRows() {
		return
	}
	l := s.cfg.Outputs * mat.TrialLanes
	s.scrV = make([]float64, s.PhysRows())
	s.scrIP = make([]float64, l)
	s.scrIN = make([]float64, l)
	s.scrS = make([]float64, l)
	s.scrArg = make([]int, mat.TrialLanes)
}

// EvaluateAll returns every trial's fraction of correctly classified
// samples — rates[t] is bit-identical to what trial t's per-trial NCS
// would return from Evaluate(set). Lane groups run outermost so each
// group's two conductance tensors stay cache-resident while the sample
// set streams through the fused kernels.
func (s *TrialSet) EvaluateAll(set *dataset.Set) ([]float64, error) {
	if set.Len() == 0 {
		return nil, errors.New("ncs: empty evaluation set")
	}
	s.scratch()
	cols, lanes := s.cfg.Outputs, mat.TrialLanes
	scale := s.codec.Scale(s.cfg.Vread)
	chain := s.chain
	correct := make([]int, s.Trials())
	for g := 0; g < s.pos.Groups(); g++ {
		live := s.pos.GroupLanes(g)
		for _, sample := range set.Samples {
			if len(sample.Pixels) != s.cfg.Inputs {
				return nil, errors.New("ncs: input length mismatch")
			}
			s.driveVectorInto(s.scrV, sample.Pixels)
			if err := s.pos.ReadLanesInto(g, s.scrIP, s.scrV); err != nil {
				return nil, err
			}
			if err := s.neg.ReadLanesInto(g, s.scrIN, s.scrV); err != nil {
				return nil, err
			}
			// Differential sensing per (column, lane), exactly as
			// NCS.scoresInto senses each column: difference in analog,
			// quantize once, scale to weight units.
			for k := range s.scrS {
				s.scrS[k] = chain.Sense(s.scrIP[k]-s.scrIN[k]) * scale
			}
			mat.ArgMaxLanes(s.scrArg, s.scrS, cols, lanes, live)
			for lane := 0; lane < live; lane++ {
				if s.scrArg[lane] == sample.Label {
					correct[g*lanes+lane]++
				}
			}
		}
	}
	rates := make([]float64, s.Trials())
	for t := range rates {
		rates[t] = float64(correct[t]) / float64(set.Len())
	}
	return rates, nil
}
