package experiment

import (
	"context"
	"fmt"

	"vortex/internal/core"
	"vortex/internal/mlp"
	"vortex/internal/opt"
	"vortex/internal/rng"
	"vortex/internal/train"
)

// MLPResult compares the single-layer Vortex NCS against a two-layer
// (crossbar + rectifier + crossbar) network across device variation: the
// plain MLP programmed open loop, and the noise-injection-trained MLP
// (the deep-network analogue of VAT). Clean software accuracies are
// reported for reference.
type MLPResult struct {
	Sigmas      []float64
	Linear      []float64 // single-layer Vortex on hardware
	MLPPlain    []float64 // plain-BP MLP on hardware
	MLPInjected []float64 // noise-injected MLP on hardware
	CleanLinear float64   // software reference accuracies
	CleanMLP    float64
	Hidden      int
}

func (r *MLPResult) cells() ([]string, [][]string) {
	rows := make([][]string, len(r.Sigmas))
	for i := range r.Sigmas {
		rows[i] = []string{
			f3(r.Sigmas[i]), pct(r.Linear[i]), pct(r.MLPPlain[i]), pct(r.MLPInjected[i]),
		}
	}
	return []string{"sigma", "linear Vortex%", "MLP plain%", "MLP noise-inj%"}, rows
}

// Table renders the result as an aligned text table.
func (r *MLPResult) Table() string { return textTable(r.cells()) }

// CSV renders the result as comma-separated values for plotting.
func (r *MLPResult) CSV() string { return csvTable(r.cells()) }

// Annotation implements Result.
func (r *MLPResult) Annotation() string {
	return fmt.Sprintf("(hidden %d; clean software: linear %.1f%%, MLP %.1f%%)\n",
		r.Hidden, 100*r.CleanLinear, 100*r.CleanMLP)
}

func init() {
	register(Runner{
		Name:        "mlp",
		Description: "Extension — two-layer (MLP) crossbar network: plain vs noise-injected training",
		Run: func(ctx context.Context, s Scale, seed uint64) (Result, error) {
			return MLP(ctx, s, seed)
		},
	})
}

// MLP runs the two-layer extension study.
func MLP(ctx context.Context, scale Scale, seed uint64) (*MLPResult, error) {
	p := protoFor(scale)
	trainSet, testSet, err := digitSets(p, seed)
	if err != nil {
		return nil, err
	}
	sigmas := []float64{0.4, 0.8}
	hidden := 48
	// Backprop at the box-constrained low rate needs more sweeps than the
	// convex single-layer training.
	mlpEpochs := 2 * p.sgd.Epochs
	if scale == Quick {
		hidden = 32
		sigmas = []float64{0.8}
	}
	res := &MLPResult{Sigmas: sigmas, Hidden: hidden}

	// Software networks are trained once; fabrication variation is the
	// Monte-Carlo variable.
	plainNet, err := mlp.Train(trainSet, 10, mlp.Config{Hidden: hidden, Epochs: mlpEpochs}, rng.New(seed+1))
	if err != nil {
		return nil, err
	}
	res.CleanMLP = plainNet.Accuracy(testSet)
	linW, err := train.SoftwareGDT(trainSet, 10, p.sgd, rng.New(seed+2))
	if err != nil {
		return nil, err
	}
	x, labels := testSet.ToMatrix()
	res.CleanLinear = opt.Accuracy(x, labels, linW)

	for si, sigma := range sigmas {
		if err := ctx.Err(); err != nil {
			if partialSweep(ctx) {
				break // render the sigmas already swept; the rest pad to NA
			}
			return nil, err
		}
		sigma := sigma
		// Injection-trained MLP is sigma-specific.
		injNet, err := mlp.Train(trainSet, 10,
			mlp.Config{Hidden: hidden, Epochs: mlpEpochs, NoiseSigma: sigma}, rng.New(seed+3))
		if err != nil {
			return nil, err
		}
		lin, err := parallelMean(ctx, p.mcRuns, func(mc int) (float64, error) {
			n, err := buildNCS(trainSet.Features(), trainSet.Features()/8, sigma, 0, 6,
				seed+uint64(100*si+mc))
			if err != nil {
				return 0, err
			}
			cfg := core.DefaultVortexConfig()
			cfg.UseSelfTune = false
			cfg.Gamma = 0.05
			cfg.SigmaOverride = sigma
			cfg.SGD = p.sgd
			cfg.PretestSenses = 1
			if _, err := core.TrainVortex(n, trainSet, cfg, rng.New(seed+uint64(200*si+mc))); err != nil {
				return 0, err
			}
			return n.Evaluate(testSet)
		})
		if err != nil {
			return nil, err
		}
		res.Linear = append(res.Linear, lin)

		hwRate := func(net *mlp.Net, off uint64) (float64, error) {
			return parallelMean(ctx, p.mcRuns, func(mc int) (float64, error) {
				hw, err := mlp.BuildHardware(net, mlp.HardwareConfig{Sigma: sigma},
					trainSet, rng.New(seed+off+uint64(300*si+mc)))
				if err != nil {
					return 0, err
				}
				return hw.Evaluate(testSet)
			})
		}
		plain, err := hwRate(plainNet, 40)
		if err != nil {
			return nil, err
		}
		inj, err := hwRate(injNet, 80)
		if err != nil {
			return nil, err
		}
		res.MLPPlain = append(res.MLPPlain, plain)
		res.MLPInjected = append(res.MLPInjected, inj)
	}
	res.Linear = padNaN(res.Linear, len(sigmas))
	res.MLPPlain = padNaN(res.MLPPlain, len(sigmas))
	res.MLPInjected = padNaN(res.MLPInjected, len(sigmas))
	return res, nil
}
