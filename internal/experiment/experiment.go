// Package experiment reproduces every data artifact of the paper's
// evaluation — Fig. 2, 3, 4, 7, 8, 9 and Table 1 — as runnable drivers
// that print rows/series in the same shape the paper reports. Each driver
// takes a Scale (Quick for tests, Default for benchmarks, Full for
// paper-scale runs) and a seed, and returns a typed result with a Table()
// text rendering.
//
// Absolute numbers depend on the synthetic digit benchmark standing in
// for MNIST (see DESIGN.md); the drivers are judged on the paper's
// qualitative shapes, which the package's tests assert.
package experiment

import (
	"fmt"

	"vortex/internal/dataset"
	"vortex/internal/ncs"
	"vortex/internal/opt"
	"vortex/internal/rng"
)

// Scale selects the computational size of an experiment run.
type Scale int

const (
	// Quick runs in O(seconds): 7x7 images, tens of samples per class.
	Quick Scale = iota
	// Default runs in O(minutes): 14x14 images, paper-like protocol.
	Default
	// Full is the paper-scale protocol: 28x28 images, 4000 training and
	// 2000 test samples.
	Full
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case Quick:
		return "quick"
	case Default:
		return "default"
	case Full:
		return "full"
	default:
		return "unknown"
	}
}

// ParseScale parses a scale name; "" means Default.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "quick":
		return Quick, nil
	case "default", "":
		return Default, nil
	case "full":
		return Full, nil
	default:
		return 0, fmt.Errorf("unknown scale %q (want quick, default or full)", s)
	}
}

// protocol bundles the per-scale evaluation parameters.
type protocol struct {
	factor        int // undersampling factor from 28x28
	perClassTrain int
	perClassTest  int
	sgd           opt.SGDConfig
	mcRuns        int // Monte-Carlo repetitions where applicable
	cldEpochs     int
}

func protoFor(s Scale) protocol {
	switch s {
	case Quick:
		return protocol{factor: 4, perClassTrain: 25, perClassTest: 15,
			sgd: opt.SGDConfig{Epochs: 20}, mcRuns: 2, cldEpochs: 20}
	case Full:
		return protocol{factor: 1, perClassTrain: 400, perClassTest: 200,
			sgd: opt.SGDConfig{Epochs: 60}, mcRuns: 5, cldEpochs: 60}
	default:
		return protocol{factor: 2, perClassTrain: 120, perClassTest: 70,
			sgd: opt.SGDConfig{Epochs: 40}, mcRuns: 3, cldEpochs: 40}
	}
}

// digitSets generates the train/test sets for a protocol, deterministic
// in the seed.
func digitSets(p protocol, seed uint64) (trainSet, testSet *dataset.Set, err error) {
	cfg := dataset.DefaultConfig()
	trainSet, err = dataset.GenerateBalanced(cfg, p.perClassTrain, rng.New(seed))
	if err != nil {
		return nil, nil, err
	}
	testSet, err = dataset.GenerateBalanced(cfg, p.perClassTest, rng.New(seed+1))
	if err != nil {
		return nil, nil, err
	}
	trainSet, err = dataset.Undersample(trainSet, p.factor, dataset.Decimate)
	if err != nil {
		return nil, nil, err
	}
	testSet, err = dataset.Undersample(testSet, p.factor, dataset.Decimate)
	if err != nil {
		return nil, nil, err
	}
	return trainSet, testSet, nil
}

// buildNCS assembles an evaluation NCS with the paper's defaults.
func buildNCS(inputs, redundancy int, sigma, rwire float64, adcBits int, seed uint64) (*ncs.NCS, error) {
	cfg := ncs.DefaultConfig(inputs, dataset.NumClasses)
	cfg.Sigma = sigma
	cfg.RWire = rwire
	cfg.Redundancy = redundancy
	cfg.ADCBits = adcBits
	return ncs.New(cfg, rng.New(seed))
}
