package experiment

import (
	"context"
	"fmt"
	"math"

	"vortex/internal/dataset"
	"vortex/internal/hw"
	"vortex/internal/mat"
	"vortex/internal/ncs"
	"vortex/internal/obs"
	"vortex/internal/rng"
)

// VecPolicy selects whether Monte-Carlo ensemble sweeps may use the
// trial-vectorized (structure-of-arrays) path. It rides the RunConfig
// into every registered runner; cmd/vortexsim sets it from the -vec
// flag. Both policies produce bit-identical sweep output — the
// vectorized path is an execution strategy, never a model change — so
// the policy only moves wall-clock.
type VecPolicy int

const (
	// VecAuto (the default) vectorizes every eligible ensemble sweep at
	// every scale (see vecEligible).
	VecAuto VecPolicy = iota
	// VecScalar evaluates every trial on the per-trial engine — the
	// reference arm of the vectorized-vs-scalar parity checks (CI diffs
	// its output against VecAuto's byte for byte).
	VecScalar
)

// String implements fmt.Stringer.
func (p VecPolicy) String() string {
	switch p {
	case VecAuto:
		return "auto"
	case VecScalar:
		return "scalar"
	default:
		return "unknown"
	}
}

// ParseVecPolicy parses a -vec flag value; "" means VecAuto.
func ParseVecPolicy(s string) (VecPolicy, error) {
	switch s {
	case "auto", "":
		return VecAuto, nil
	case "scalar":
		return VecScalar, nil
	default:
		return 0, fmt.Errorf("unknown vectorize policy %q (want auto or scalar)", s)
	}
}

// vecPolicyFrom reads the run's vectorize policy, VecAuto outside a
// decorated run.
func vecPolicyFrom(ctx context.Context) VecPolicy {
	if st := sweepStateFrom(ctx); st != nil {
		return st.cfg.Vectorize
	}
	return VecAuto
}

// ensembleSpec describes one Monte-Carlo ensemble sweep of the shape the
// vectorized path accepts: fabricate len(seeds) systems that differ only
// in their fabrication draws, program the same logical weights into each
// through the identity row map, and evaluate each on the same sample
// set. Sweeps that do more per trial — training on hardware, AMP
// remapping, fault injection, drift — do not fit this shape and stay on
// the per-trial engine.
type ensembleSpec struct {
	inputs     int
	redundancy int
	sigma      float64
	rwire      float64
	adcBits    int
	weights    *mat.Matrix
	set        *dataset.Set
	seeds      []uint64

	// mutatesHardware marks a sweep whose per-trial body mutates array
	// state beyond programming the shared weights (fault injection,
	// defect conversion, drift). Such sweeps are never routed to the
	// vectorized path — the trial batch shares its programming state
	// across trials, so a silent routing would evaluate un-mutated
	// hardware.
	mutatesHardware bool
}

// vecEligible reports whether an ensemble sweep may run the vectorized
// path under the policy, with the reason when it may not. Eligibility is
// the physics the trial batch represents exactly (hw.NewTrialBatch):
// ideal wires and shared programming state. ensembleNCSConfig never
// asks for disturb or cycle-to-cycle noise, so rwire and
// mutatesHardware are the conditions left to check.
func vecEligible(spec ensembleSpec, pol VecPolicy) (bool, string) {
	switch {
	case pol == VecScalar:
		return false, "policy " + pol.String()
	case spec.mutatesHardware:
		return false, "per-trial hardware mutation"
	case spec.rwire != 0:
		return false, "wire parasitics"
	default:
		return true, ""
	}
}

// ensembleNCSConfig builds the ncs configuration of one ensemble trial —
// buildNCS's exact configuration, shared by the scalar and vectorized
// arms.
func ensembleNCSConfig(spec ensembleSpec) ncs.Config {
	cfg := ncs.DefaultConfig(spec.inputs, dataset.NumClasses)
	cfg.Sigma = spec.sigma
	cfg.RWire = spec.rwire
	cfg.Redundancy = spec.redundancy
	cfg.ADCBits = spec.adcBits
	return cfg
}

// ensembleRates evaluates an ensemble sweep — one test rate per seed —
// through parallelTrialsBatch: eligible sweeps run the trial-vectorized
// structure-of-arrays fast path in chunks, everything else (and any
// batch failure) runs the resilient per-trial engine. Output is
// byte-identical between the paths; checkpointing, retries, panic
// isolation and partial degradation behave as in every other sweep.
func ensembleRates(ctx context.Context, spec ensembleSpec) ([]float64, []bool, error) {
	pol := vecPolicyFrom(ctx)
	cfg := ensembleNCSConfig(spec)
	scalar := func(t Trial) (float64, error) {
		n, err := ncs.New(cfg, rng.New(spec.seeds[t.Index]))
		if err != nil {
			return 0, err
		}
		if err := n.ProgramWeights(spec.weights, hw.ProgramOptions{}); err != nil {
			return 0, err
		}
		return n.Evaluate(spec.set)
	}
	var batch func(ctx context.Context, idxs []int) ([]float64, error)
	if ok, reason := vecEligible(spec, pol); ok {
		batch = func(bctx context.Context, idxs []int) ([]float64, error) {
			seeds := make([]uint64, len(idxs))
			for k, i := range idxs {
				seeds[k] = spec.seeds[i]
			}
			fsp := obs.StartSpanFrom(bctx, "vec.fabricate", "trials", len(idxs))
			ts, err := ncs.NewTrialSet(cfg, seeds)
			fsp.End()
			if err != nil {
				return nil, err
			}
			psp := obs.StartSpanFrom(bctx, "vec.program", "trials", len(idxs))
			err = ts.ProgramWeights(spec.weights, hw.ProgramOptions{})
			psp.End()
			if err != nil {
				return nil, err
			}
			esp := obs.StartSpanFrom(bctx, "vec.evaluate", "trials", len(idxs),
				"samples", spec.set.Len())
			rates, err := ts.EvaluateAll(spec.set)
			esp.End()
			return rates, err
		}
	} else if pol == VecAuto {
		obs.L().Debug("ensemble sweep not vectorized", "reason", reason,
			"policy", pol.String(), "trials", len(spec.seeds))
	}
	return parallelTrialsBatch(ctx, len(spec.seeds), batch, scalar)
}

// meanRate folds an ensemble's completed rates into their mean, NaN when
// none completed (rendered NA).
func meanRate(rates []float64, done []bool) float64 {
	sum, k := 0.0, 0
	for i, r := range rates {
		if done[i] {
			sum += r
			k++
		}
	}
	if k == 0 {
		return math.NaN()
	}
	return sum / float64(k)
}
