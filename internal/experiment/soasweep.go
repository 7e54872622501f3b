package experiment

import (
	"context"
	"fmt"
	"math"
	"time"

	"vortex/internal/dataset"
	"vortex/internal/mat"
)

// soaTrials is the ensemble size of the soasweep driver per scale. The
// sweep exists to exercise (and benchmark) the trial-vectorized path, so
// it runs far more Monte-Carlo fabrications than the paper figures do.
func soaTrials(s Scale) int {
	switch s {
	case Quick:
		return 16
	case Full:
		return 256
	default:
		return 64
	}
}

// SoaResult holds one large fixed-weight Monte-Carlo ensemble: the test
// rate of every fabricated system plus their mean. The per-trial rows
// carry no timing or execution-path information, so the CSV rendering is
// byte-identical between the vectorized and scalar engines — CI diffs
// the two.
type SoaResult struct {
	Sigma  float64
	Trials int
	Seeds  []uint64
	Rates  []float64 // NaN where a trial is missing (partial runs)
	Mean   float64

	// Setup and Sweep split the driver's wall clock into the shared
	// preparation (dataset generation, template weights) and the ensemble
	// evaluation itself — the phase the vectorize policy moves. Neither
	// appears in the CSV/Table renderings, so timing never breaks the
	// byte-parity contract; benchmarks read them off the result.
	Setup time.Duration
	Sweep time.Duration
}

func (r *SoaResult) cells() ([]string, [][]string) {
	rows := make([][]string, len(r.Seeds))
	for i := range r.Seeds {
		rows[i] = []string{intS(i), fmt.Sprintf("%d", r.Seeds[i]), pct(r.Rates[i])}
	}
	return []string{"trial", "seed", "test%"}, rows
}

// Table renders the result as an aligned text table.
func (r *SoaResult) Table() string { return textTable(r.cells()) }

// CSV renders the result as comma-separated values for plotting.
func (r *SoaResult) CSV() string { return csvTable(r.cells()) }

// Annotation implements Result.
func (r *SoaResult) Annotation() string {
	return fmt.Sprintf("mean test rate %.1f%% over %d fabrications (sigma=%.1f)\n",
		100*r.Mean, r.Trials, r.Sigma)
}

func init() {
	register(Runner{
		Name:        "soasweep",
		Description: "large Monte-Carlo ensemble at fixed weights (trial-vectorized fast path)",
		Run: func(ctx context.Context, s Scale, seed uint64) (Result, error) {
			return SoaSweep(ctx, s, seed)
		},
	})
}

// classTemplateWeights builds a deterministic logical weight matrix from
// the training set without any SGD: each class column is the mean pixel
// vector of its training samples, shifted to zero mean per column and
// scaled so the largest magnitude is 1. Cheap, seed-stable and accurate
// enough (nearest-template classification) to make the ensemble's test
// rates meaningful.
func classTemplateWeights(set *dataset.Set) *mat.Matrix {
	inputs := set.Features()
	w := mat.NewMatrix(inputs, dataset.NumClasses)
	counts := make([]int, dataset.NumClasses)
	for _, s := range set.Samples {
		counts[s.Label]++
		for i, p := range s.Pixels {
			w.Data[i*dataset.NumClasses+s.Label] += p
		}
	}
	maxAbs := 0.0
	for j := 0; j < dataset.NumClasses; j++ {
		if counts[j] == 0 {
			continue
		}
		mean := 0.0
		for i := 0; i < inputs; i++ {
			w.Data[i*dataset.NumClasses+j] /= float64(counts[j])
			mean += w.Data[i*dataset.NumClasses+j]
		}
		mean /= float64(inputs)
		for i := 0; i < inputs; i++ {
			v := w.Data[i*dataset.NumClasses+j] - mean
			w.Data[i*dataset.NumClasses+j] = v
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
	}
	if maxAbs > 0 {
		for i := range w.Data {
			w.Data[i] /= maxAbs
		}
	}
	return w
}

// SoaSweep fabricates a large seeded ensemble of crossbar systems,
// programs the same deterministic class-template weights into each, and
// reports every system's test rate. The sweep is the repository's
// benchmark workload for the structure-of-arrays fast path: it is
// eligible for vectorization at every scale (ideal wires, no per-trial
// hardware mutation) and its output is bit-identical
// between the vectorized and per-trial engines.
func SoaSweep(ctx context.Context, scale Scale, seed uint64) (*SoaResult, error) {
	start := time.Now()
	p := protoFor(scale)
	trainSet, testSet, err := digitSets(p, seed)
	if err != nil {
		return nil, err
	}
	const sigma = 0.6
	w := classTemplateWeights(trainSet)
	trials := soaTrials(scale)
	seeds := make([]uint64, trials)
	for mc := range seeds {
		seeds[mc] = seed + 100*uint64(mc) + 11
	}
	setup := time.Since(start)
	sweepStart := time.Now()
	rates, completed, err := ensembleRates(ctx, ensembleSpec{
		inputs: trainSet.Features(), sigma: sigma,
		adcBits: 6, weights: w, set: testSet, seeds: seeds,
	})
	if err != nil {
		return nil, err
	}
	res := &SoaResult{Sigma: sigma, Trials: trials, Seeds: seeds,
		Rates: make([]float64, trials), Mean: meanRate(rates, completed),
		Setup: setup, Sweep: time.Since(sweepStart)}
	for i := range rates {
		if completed[i] {
			res.Rates[i] = rates[i]
		} else {
			res.Rates[i] = math.NaN()
		}
	}
	return res, nil
}
