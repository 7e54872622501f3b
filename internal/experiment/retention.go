package experiment

import (
	"context"
	"fmt"
	"math"

	"vortex/internal/core"
	"vortex/internal/device"
	"vortex/internal/rng"
)

// RetentionResult quantifies how long a programmed NCS stays accurate
// under retention drift, and how a drift-aware variation margin extends
// that horizon — the natural follow-on of the paper's variation analysis
// (drift acts as a slowly growing extra sigma).
type RetentionResult struct {
	Times      []float64 // seconds after programming
	Plain      []float64 // Vortex trained for the fabrication sigma only
	DriftAware []float64 // Vortex trained with the drift margin folded in
	Sigma      float64
	Drift      device.DriftModel
	Horizon    float64 // target lifetime the drift-aware margin budgets for
}

func (r *RetentionResult) cells() ([]string, [][]string) {
	rows := make([][]string, len(r.Times))
	for i := range r.Times {
		rows[i] = []string{
			sci(r.Times[i]), pct(r.Plain[i]), pct(r.DriftAware[i]),
		}
	}
	return []string{"age [s]", "plain%", "drift-aware%"}, rows
}

// Table renders the result as an aligned text table.
func (r *RetentionResult) Table() string { return textTable(r.cells()) }

// CSV renders the result as comma-separated values for plotting.
func (r *RetentionResult) CSV() string { return csvTable(r.cells()) }

// Annotation implements Result.
func (r *RetentionResult) Annotation() string {
	return fmt.Sprintf("(sigma=%.1f, drift nu=%.2f+/-%.2f, horizon %.0e s)\n",
		r.Sigma, r.Drift.NuMean, r.Drift.NuSigma, r.Horizon)
}

func init() {
	register(Runner{
		Name:        "retention",
		Description: "Extension — retention drift: test rate vs age, plain vs drift-aware training",
		Run: func(ctx context.Context, s Scale, seed uint64) (Result, error) {
			return Retention(ctx, s, seed)
		},
	})
}

// Retention programs two identically fabricated systems — one trained
// against the fabrication sigma alone, one with the drift-equivalent
// sigma at the target horizon folded in quadrature — then ages both and
// tracks their test rates.
func Retention(ctx context.Context, scale Scale, seed uint64) (*RetentionResult, error) {
	p := protoFor(scale)
	trainSet, testSet, err := digitSets(p, seed)
	if err != nil {
		return nil, err
	}
	times := []float64{1, 1e2, 1e4, 1e6, 1e8}
	if scale == Quick {
		times = []float64{1, 1e4, 1e8}
	}
	const sigma = 0.3
	drift := device.DriftModel{NuMean: 0.05, NuSigma: 0.06, T0: 1}
	horizon := times[len(times)-1]
	res := &RetentionResult{Times: times, Sigma: sigma, Drift: drift, Horizon: horizon}

	driftSigma := drift.EquivalentSigma(horizon)
	awareSigma := math.Sqrt(sigma*sigma + driftSigma*driftSigma)

	res.Plain = make([]float64, len(times))
	res.DriftAware = make([]float64, len(times))
	for mc := 0; mc < p.mcRuns; mc++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		base := seed + uint64(701*mc)
		run := func(trainSigma float64, out []float64) error {
			n, err := buildNCS(trainSet.Features(), trainSet.Features()/8, sigma, 0, 6, base)
			if err != nil {
				return err
			}
			if err := n.InitDrift(drift, rng.New(base+3)); err != nil {
				return err
			}
			cfg := core.DefaultVortexConfig()
			// Self-tune the penalty against the budgeted sigma: a fixed
			// gamma that suits the fabrication sigma overshoots once the
			// drift margin is folded in.
			cfg.SigmaOverride = trainSigma
			cfg.SGD = p.sgd
			cfg.SelfTune.MCRuns = p.mcRuns
			cfg.PretestSenses = 1
			cfg.DisableIntegrationRetrain = true // keep the budgeted margin
			if _, err := core.TrainVortex(n, trainSet, cfg, rng.New(base+5)); err != nil {
				return err
			}
			for ti, t := range times {
				if err := n.AgeTo(t); err != nil {
					return err
				}
				rate, err := n.Evaluate(testSet)
				if err != nil {
					return err
				}
				out[ti] += rate
			}
			return nil
		}
		if err := run(sigma, res.Plain); err != nil {
			return nil, err
		}
		if err := run(awareSigma, res.DriftAware); err != nil {
			return nil, err
		}
	}
	for i := range times {
		res.Plain[i] /= float64(p.mcRuns)
		res.DriftAware[i] /= float64(p.mcRuns)
	}
	return res, nil
}
