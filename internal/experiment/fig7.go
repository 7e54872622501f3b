package experiment

import (
	"context"
	"fmt"
	"math"

	"vortex/internal/core"
	"vortex/internal/dataset"
	"vortex/internal/hw"
	"vortex/internal/mapping"
	"vortex/internal/opt"
	"vortex/internal/rng"
	"vortex/internal/stats"
)

// Fig7Result holds the AMP-effectiveness curves of paper Fig. 7: VAT
// training rate and hardware test rates before and after adaptive
// mapping, versus gamma.
type Fig7Result struct {
	Sigma           float64
	Redundancy      int
	Gammas          []float64
	TrainRate       []float64
	TestBeforeAMP   []float64
	TestAfterAMP    []float64
	BestGammaBefore float64
	BestGammaAfter  float64
}

func (r *Fig7Result) cells() ([]string, [][]string) {
	rows := make([][]string, len(r.Gammas))
	for i := range r.Gammas {
		rows[i] = []string{
			f3(r.Gammas[i]), pct(r.TrainRate[i]),
			pct(r.TestBeforeAMP[i]), pct(r.TestAfterAMP[i]),
		}
	}
	return []string{"gamma", "train%", "test% before AMP", "test% after AMP"}, rows
}

// Table renders the result as an aligned text table.
func (r *Fig7Result) Table() string { return textTable(r.cells()) }

// CSV renders the result as comma-separated values for plotting.
func (r *Fig7Result) CSV() string { return csvTable(r.cells()) }

// Annotation implements Result.
func (r *Fig7Result) Annotation() string {
	return fmt.Sprintf("best gamma before AMP %.2f, after AMP %.2f (paper: 0.4 -> 0.2)\n",
		r.BestGammaBefore, r.BestGammaAfter)
}

func init() {
	register(Runner{
		Name:        "fig7",
		Description: "Fig. 7 — effectiveness of AMP across gamma",
		Run: func(ctx context.Context, s Scale, seed uint64) (Result, error) {
			return Fig7(ctx, s, seed)
		},
	})
}

// Fig7 sweeps gamma at sigma = 0.8 and measures the hardware test rate of
// VAT-programmed crossbars before and after AMP's greedy remapping, as in
// paper Sec. 5.1. The same fabricated hardware and the same weights are
// used on both sides of the comparison, isolating the mapping effect.
func Fig7(ctx context.Context, scale Scale, seed uint64) (*Fig7Result, error) {
	p := protoFor(scale)
	trainSet, testSet, err := digitSets(p, seed)
	if err != nil {
		return nil, err
	}
	const sigma = 0.8
	redundancy := 20
	if scale == Quick {
		redundancy = 8
	}
	gammas := []float64{0, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3}
	res := &Fig7Result{Sigma: sigma, Redundancy: redundancy, Gammas: gammas}
	xTrain, lTrain := trainSet.ToMatrix()
	rho := stats.ThetaNormBound(sigma, trainSet.Features(), 0.9)
	src := rng.New(seed + 17)
	xmean := trainSet.MeanInput()

	for _, gamma := range gammas {
		if err := ctx.Err(); err != nil {
			if partialSweep(ctx) {
				break // render the gammas already swept; the rest pad to NA
			}
			return nil, err
		}
		w, err := opt.TrainAll(xTrain, lTrain, dataset.NumClasses, gamma, rho, p.sgd, src.Split())
		if err != nil {
			return nil, err
		}
		res.TrainRate = append(res.TrainRate, opt.Accuracy(xTrain, lTrain, w))

		var sumBefore, sumAfter float64
		for mc := 0; mc < p.mcRuns; mc++ {
			n, err := buildNCS(trainSet.Features(), redundancy, sigma, 0, 6,
				seed+1000*uint64(mc)+23)
			if err != nil {
				return nil, err
			}
			// Before AMP: identity mapping.
			if err := n.ProgramWeights(w, hw.ProgramOptions{}); err != nil {
				return nil, err
			}
			rate, err := n.Evaluate(testSet)
			if err != nil {
				return nil, err
			}
			sumBefore += rate

			// After AMP: pre-test, remap, reprogram the same weights.
			fpos, err := n.Pos.Pretest(100e3, 1, nil)
			if err != nil {
				return nil, err
			}
			fneg, err := n.Neg.Pretest(100e3, 1, nil)
			if err != nil {
				return nil, err
			}
			rowMap, err := mapping.Greedy(w, fpos, fneg, xmean)
			if err != nil {
				return nil, err
			}
			if err := n.SetRowMap(rowMap); err != nil {
				return nil, err
			}
			if err := n.ProgramWeights(w, hw.ProgramOptions{}); err != nil {
				return nil, err
			}
			rate, err = n.Evaluate(testSet)
			if err != nil {
				return nil, err
			}
			sumAfter += rate
		}
		res.TestBeforeAMP = append(res.TestBeforeAMP, sumBefore/float64(p.mcRuns))
		res.TestAfterAMP = append(res.TestAfterAMP, sumAfter/float64(p.mcRuns))
	}
	res.TrainRate = padNaN(res.TrainRate, len(gammas))
	res.TestBeforeAMP = padNaN(res.TestBeforeAMP, len(gammas))
	res.TestAfterAMP = padNaN(res.TestAfterAMP, len(gammas))
	// NaN-aware argmax so a partial run still picks peaks among the
	// gammas that were measured.
	bi, ai := -1, -1
	for i := range gammas {
		if !math.IsNaN(res.TestBeforeAMP[i]) && (bi < 0 || res.TestBeforeAMP[i] > res.TestBeforeAMP[bi]) {
			bi = i
		}
		if !math.IsNaN(res.TestAfterAMP[i]) && (ai < 0 || res.TestAfterAMP[i] > res.TestAfterAMP[ai]) {
			ai = i
		}
	}
	res.BestGammaBefore, res.BestGammaAfter = math.NaN(), math.NaN()
	if bi >= 0 {
		res.BestGammaBefore = gammas[bi]
	}
	if ai >= 0 {
		res.BestGammaAfter = gammas[ai]
	}
	return res, nil
}

// vortexTestRate is the shared Fig. 8 / Fig. 9 inner loop: run the full
// Vortex pipeline at a fixed gamma on freshly fabricated hardware and
// return the mean test rate over mcRuns fabrications.
func vortexTestRate(ctx context.Context, trainSet, testSet *dataset.Set,
	sigma, rwire float64, redundancy, adcBits, pretestBits int, gamma float64,
	sgd opt.SGDConfig, mcRuns int, seed uint64) (float64, error) {
	cfg := core.DefaultVortexConfig()
	cfg.UseSelfTune = false
	cfg.Gamma = gamma
	cfg.SGD = sgd
	cfg.PretestADCBits = pretestBits
	cfg.PretestSenses = 1
	// Pin the variation model to the known fabrication sigma so the VAT
	// penalty is identical across the sweep; the pre-test ADC then acts
	// only where the paper studies it — on AMP's per-cell factor
	// estimates and on output sensing.
	cfg.SigmaOverride = sigma
	return parallelMean(ctx, mcRuns, func(mc int) (float64, error) {
		n, err := buildNCS(trainSet.Features(), redundancy, sigma, rwire, adcBits,
			seed+1000*uint64(mc)+37)
		if err != nil {
			return 0, err
		}
		if _, err := core.TrainVortex(n, trainSet, cfg, rng.New(seed+1000*uint64(mc)+41)); err != nil {
			return 0, err
		}
		return n.Evaluate(testSet)
	})
}
