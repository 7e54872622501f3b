package hw

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"vortex/internal/device"
	"vortex/internal/mat"
	"vortex/internal/rng"
)

// TrialBatch is the structure-of-arrays kernel for Monte-Carlo
// ensembles: one batch holds the per-cell variation state of many
// ideal-wire arrays that share a geometry, a switching model and —
// crucially — a programming history, differing only in their
// fabrication draws (theta, defects). Trials are stored in lane groups
// of mat.TrialLanes so the fused mat kernels stream one conductance
// tensor per group instead of walking thousands of small per-trial
// matrices.
//
// Equivalence contract: lane t of a TrialBatch fabricated from sources
// srcs[t] is bit-identical to a circuit array (xbar.New) fabricated from
// the same source and driven through the same ProgramTargets/ResetAll
// calls. The batch replays the circuit backend's fabrication draw order
// per trial (theta, then the defect Bernoullis, cell by cell) and hoists
// the programming pass across trials. That is exact under three
// conditions, which NewTrialBatch enforces:
//
//   - RWire = 0: the read is the ideal-wire product y = x·W, and every
//     pulse is delivered at its nominal voltage;
//   - no half-select disturb: a pulse moves only its own cell;
//   - SigmaCycle = 0: no per-pulse noise is drawn, so every trial
//     shares the driven state — all cells start at XMax and open-loop
//     pulse pre-calculation depends only on the driven state and the
//     shared target. Per-trial cycle noise would fork the driven state
//     and the whole hoist.
//
// Defective cells do not break the shared driven state: pulses never
// advance them and their observable conductance ignores the driven
// value, so per-trial defect maps only affect the conductance tensor.
//
// Concurrency: fabrication and mutation (ProgramTargets, ResetAll,
// InjectVariation) must be serialized by the caller, but any number of
// goroutines may call the read-side methods (ReadLanesInto, Tensor,
// LaneConductances) concurrently once mutation has happened-before —
// the per-group conductance tensors build under a lock and publish
// atomically. This is the concurrency contract the batch race tests
// pin.
//
// Cost accounting: Stats reports the programming cost of one trial (the
// trials are identical by the hoisting argument), except Energy, which
// depends on per-trial conductances and is not tracked by the batch;
// sweeps that need per-trial energy use the per-trial path.
type TrialBatch struct {
	cfg    Config
	trials int
	x      []float64 // shared driven log-resistance, row-major
	groups []*laneGroup
	stats  ProgramStats
	met    *Metrics
}

// laneGroup holds up to mat.TrialLanes trials' variation state and the
// cached conductance tensor built from it.
type laneGroup struct {
	n      int       // live trials in this group
	theta  []float64 // (i*cols+j)*TrialLanes + t, lane-minor
	defect []device.DefectKind

	mu sync.Mutex                  // serializes tensor rebuilds
	g  atomic.Pointer[mat.Tensor3] // nil = dirty
}

// NewTrialBatch fabricates len(srcs) ideal-wire arrays as one
// structure-of-arrays batch, drawing trial t's fabrication variation
// from srcs[t] exactly as xbar.New would. The configuration must have
// ideal wires (RWire = 0), no disturb and no cycle-to-cycle programming
// noise (SigmaCycle = 0), since the batch hoists programming across
// trials.
func NewTrialBatch(cfg Config, srcs []*rng.Source) (*TrialBatch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(srcs) == 0 {
		return nil, errors.New("hw: trial batch needs at least one rng source")
	}
	if cfg.RWire != 0 {
		return nil, errors.New("hw: trial batch requires RWire = 0 (no parasitic network); use the per-trial circuit backend")
	}
	if cfg.Disturb {
		return nil, errors.New("hw: trial batch does not model half-select disturb")
	}
	if cfg.SigmaCycle != 0 {
		return nil, errors.New("hw: trial batch requires SigmaCycle = 0 (per-pulse noise forks the shared programming state); use the per-trial path")
	}
	cells := cfg.Rows * cfg.Cols
	b := &TrialBatch{
		cfg:    cfg,
		trials: len(srcs),
		x:      make([]float64, cells),
		met:    MetricsFor("trialbatch"),
	}
	xmax := cfg.Model.XMax()
	for i := range b.x {
		b.x[i] = xmax
	}
	nGroups := (len(srcs) + mat.TrialLanes - 1) / mat.TrialLanes
	b.groups = make([]*laneGroup, nGroups)
	for g := range b.groups {
		b.groups[g] = &laneGroup{
			theta:  make([]float64, cells*mat.TrialLanes),
			defect: make([]device.DefectKind, cells*mat.TrialLanes),
		}
	}
	start := b.met.Start()
	for t, src := range srcs {
		if src == nil {
			return nil, errors.New("hw: nil rng source")
		}
		grp, lane := b.groups[t/mat.TrialLanes], t%mat.TrialLanes
		grp.n++
		// xbar.New's fabrication draw order, cell by cell: theta (when
		// Sigma > 0), the driven state (shared XMax), then the defect
		// Bernoullis.
		for idx := 0; idx < cells; idx++ {
			li := idx*mat.TrialLanes + lane
			if cfg.Sigma > 0 {
				grp.theta[li] = src.Normal(0, cfg.Sigma)
			}
			if cfg.DefectRate > 0 && src.Bernoulli(cfg.DefectRate) {
				if src.Bernoulli(0.5) {
					grp.defect[li] = device.DefectStuckLRS
				} else {
					grp.defect[li] = device.DefectStuckHRS
				}
			}
		}
	}
	b.met.ObserveBatchFabricate(start, len(srcs))
	return b, nil
}

// Trials returns the number of trials in the batch.
func (b *TrialBatch) Trials() int { return b.trials }

// Rows returns the number of word lines of every trial's array.
func (b *TrialBatch) Rows() int { return b.cfg.Rows }

// Cols returns the number of bit lines of every trial's array.
func (b *TrialBatch) Cols() int { return b.cfg.Cols }

// Groups returns the number of trial-lane groups; read kernels operate
// one group at a time.
func (b *TrialBatch) Groups() int { return len(b.groups) }

// GroupLanes returns the number of live trials in group g (the last
// group may be partially filled); trial t lives in group
// t/mat.TrialLanes, lane t%mat.TrialLanes.
func (b *TrialBatch) GroupLanes(g int) int { return b.groups[g].n }

// dirty invalidates every group's cached conductance tensor.
func (b *TrialBatch) dirty() {
	for _, grp := range b.groups {
		grp.g.Store(nil)
	}
}

// Tensor returns (building if stale) group g's conductance tensor:
// lanes hold trials, cells hold the same observable conductances a
// per-trial circuit array computes. The returned tensor is shared — callers
// must not mutate it. Safe for concurrent callers.
func (b *TrialBatch) Tensor(g int) *mat.Tensor3 {
	grp := b.groups[g]
	if t := grp.g.Load(); t != nil {
		return t
	}
	grp.mu.Lock()
	defer grp.mu.Unlock()
	if t := grp.g.Load(); t != nil {
		return t
	}
	start := b.met.Start()
	t := mat.NewTensor3(b.cfg.Rows, b.cfg.Cols, mat.TrialLanes)
	model := b.cfg.Model
	for idx, xv := range b.x {
		base := idx * mat.TrialLanes
		for lane := 0; lane < grp.n; lane++ {
			li := base + lane
			// device.Memristor.Conductance's exact floating-point paths.
			var gv float64
			switch grp.defect[li] {
			case device.DefectStuckLRS:
				gv = 1 / (model.Ron * math.Exp(grp.theta[li]))
			case device.DefectStuckHRS:
				gv = 1 / (model.Roff * math.Exp(grp.theta[li]))
			case device.DefectOpen:
				gv = 1 / device.ROpen
			default:
				gv = 1 / math.Exp(xv+grp.theta[li])
			}
			t.Data[li] = gv
		}
	}
	b.met.ObserveBatchBuild(start)
	grp.g.Store(t)
	return t
}

// ReadLanesInto computes, for every trial lane of group g at once, the
// column currents for row voltages v: dst[j*mat.TrialLanes+t] is trial
// lane t's current on column j, bit-identical to that trial's
// circuit-array ReadInto. dst has length Cols*mat.TrialLanes; lanes
// beyond GroupLanes(g) read zero. Safe for concurrent callers.
func (b *TrialBatch) ReadLanesInto(g int, dst, v []float64) error {
	start := b.met.Start()
	b.Tensor(g).MulVecLanesTo(dst, v)
	b.met.ObserveBatchScores(start, b.groups[g].n)
	return nil
}

// LaneConductances returns a snapshot of trial t's observable
// conductance matrix — the per-trial view of the batch, for parity
// checks and scalar fallbacks.
func (b *TrialBatch) LaneConductances(t int) *mat.Matrix {
	if t < 0 || t >= b.trials {
		panic(fmt.Sprintf("hw: trial %d out of batch of %d", t, b.trials))
	}
	return b.Tensor(t / mat.TrialLanes).Lane(t % mat.TrialLanes)
}

// ProgramTargets programs every trial's array to the target resistance
// matrix with one open-loop pulse per cell, hoisted across the batch:
// the pulse pre-calculation and state advance run once on the shared
// driven state, which is exact for every trial (see the type comment).
// The validation, clamping and pulse-skipping semantics are the circuit
// backend's ProgramTargets'.
func (b *TrialBatch) ProgramTargets(targets *mat.Matrix, opts ProgramOptions) error {
	if targets.Rows != b.cfg.Rows || targets.Cols != b.cfg.Cols {
		return errors.New("hw: target matrix dimension mismatch")
	}
	start := b.met.Start()
	model := b.cfg.Model
	pulses := 0
	for i := 0; i < targets.Rows; i++ {
		for j := 0; j < targets.Cols; j++ {
			r := targets.At(i, j)
			if r <= 0 {
				return fmt.Errorf("hw: non-positive target resistance at (%d,%d)", i, j)
			}
			xt := b.clampX(math.Log(r))
			idx := i*b.cfg.Cols + j
			p := model.PulseForTarget(b.x[idx], xt)
			if p.Width <= 0 || p.Voltage == 0 {
				continue
			}
			b.x[idx] = model.Advance(b.x[idx], p)
			pulses++
			b.stats.Pulses++
			b.stats.PulseTime += p.Width
		}
	}
	b.stats.Batches++
	b.dirty()
	b.met.ObserveBatchProgram(start, pulses, b.trials)
	return nil
}

// clampX bounds a driven log-resistance to the model's range, as the
// circuit backend does.
func (b *TrialBatch) clampX(v float64) float64 {
	model := b.cfg.Model
	if v < model.XMin() {
		return model.XMin()
	}
	if v > model.XMax() {
		return model.XMax()
	}
	return v
}

// ResetAll drives every trial's healthy cells back to HRS instantly.
func (b *TrialBatch) ResetAll() {
	xmax := b.cfg.Model.XMax()
	for i := range b.x {
		b.x[i] = xmax
	}
	b.dirty()
}

// InjectVariation re-draws every trial's parametric variation with the
// given sigma, drawing trial t's cells from srcs[t] in the circuit
// backend's InjectVariation order — the batched variation-injection
// kernel for Monte-Carlo loops that reuse one fabricated batch across
// ensembles.
func (b *TrialBatch) InjectVariation(sigma float64, srcs []*rng.Source) error {
	if len(srcs) != b.trials {
		return errors.New("hw: variation source count does not match batch trials")
	}
	cells := b.cfg.Rows * b.cfg.Cols
	for t, src := range srcs {
		if src == nil {
			return errors.New("hw: nil rng source")
		}
		grp, lane := b.groups[t/mat.TrialLanes], t%mat.TrialLanes
		for idx := 0; idx < cells; idx++ {
			li := idx*mat.TrialLanes + lane
			if sigma > 0 {
				grp.theta[li] = src.Normal(0, sigma)
			} else {
				grp.theta[li] = 0
			}
		}
	}
	b.dirty()
	return nil
}

// Stats returns the accumulated programming cost of one trial of the
// batch (identical across trials; Energy is not tracked — see the type
// comment).
func (b *TrialBatch) Stats() ProgramStats { return b.stats }

// ResetStats clears the cost counters.
func (b *TrialBatch) ResetStats() { b.stats = ProgramStats{} }
