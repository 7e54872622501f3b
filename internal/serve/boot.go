package serve

import (
	"errors"
	"fmt"

	"vortex/internal/dataset"
	"vortex/internal/fleet"
	"vortex/internal/hw"
	"vortex/internal/ncs"
	"vortex/internal/opt"
	"vortex/internal/rng"
	"vortex/internal/train"
)

// BootConfig describes the serving fleet a command boots: how big the
// benchmark protocol is, how many arrays back the router, and the
// fabrication knobs. Zero fields resolve to the documented defaults.
type BootConfig struct {
	// Scale names the benchmark protocol the fleet is trained for:
	// "quick" (7x7 inputs, seconds to boot), "default" (14x14) or
	// "full" (the paper's 784-input protocol). Default "quick".
	Scale string
	// Members is the number of arrays in the fleet. Default 3.
	Members int
	// Sigma is the lognormal fabrication variation. Default 0.3.
	Sigma float64
	// Seed drives training and every member's fabrication draw; a
	// (Scale, Seed) pair boots a bit-reproducible fleet. Default 42.
	Seed uint64
}

func (c BootConfig) withDefaults() BootConfig {
	if c.Scale == "" {
		c.Scale = "quick"
	}
	if c.Members == 0 {
		c.Members = 3
	}
	if c.Sigma == 0 {
		c.Sigma = 0.3
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// bootProtocol is the per-scale benchmark protocol (mirrors the
// experiment package's scales without importing its registry).
type bootProtocol struct {
	factor        int // undersampling factor from 28x28
	perClassTrain int
	perClassTest  int
	epochs        int
}

// bootProtoFor resolves a scale name.
func bootProtoFor(scale string) (bootProtocol, error) {
	switch scale {
	case "quick":
		return bootProtocol{factor: 4, perClassTrain: 25, perClassTest: 15, epochs: 20}, nil
	case "default":
		return bootProtocol{factor: 2, perClassTrain: 120, perClassTest: 70, epochs: 40}, nil
	case "full":
		return bootProtocol{factor: 1, perClassTrain: 400, perClassTest: 200, epochs: 60}, nil
	default:
		return bootProtocol{}, fmt.Errorf("serve: unknown scale %q (want quick, default or full)", scale)
	}
}

// Boot is a ready-to-serve fleet: the router over programmed members,
// the input dimension requests must carry, the training baseline and
// the held-out test set (the probe/load workload).
type Boot struct {
	// Fleet is the router over the programmed members.
	Fleet *fleet.Fleet
	// Inputs is the logical input dimension (pixels).
	Inputs int
	// Test is the held-out evaluation set matching the scale and seed —
	// the same set LoadSet returns, so a load generator pointed at this
	// fleet measures real accuracy.
	Test *dataset.Set
	// Accuracy is the booted fleet's test accuracy through the router,
	// before any traffic.
	Accuracy float64
}

// BuildFleet trains one weight matrix on the scale's synthetic digit
// benchmark, fabricates Members identically-trained arrays (distinct
// fabrication draws) on the circuit backend (the ncs default), programs
// them, and assembles the routing fleet. Deterministic in (Scale, Seed).
func BuildFleet(cfg BootConfig) (*Boot, error) {
	cfg = cfg.withDefaults()
	if cfg.Members < 1 {
		return nil, errors.New("serve: need at least one member")
	}
	p, err := bootProtoFor(cfg.Scale)
	if err != nil {
		return nil, err
	}
	trainSet, testSet, err := bootSets(p, cfg.Seed)
	if err != nil {
		return nil, err
	}
	w, err := train.SoftwareGDT(trainSet, dataset.NumClasses,
		opt.SGDConfig{Epochs: p.epochs}, rng.New(cfg.Seed+3))
	if err != nil {
		return nil, err
	}
	specs := make([]fleet.MemberSpec, cfg.Members)
	for i := range specs {
		nc := ncs.DefaultConfig(trainSet.Features(), dataset.NumClasses)
		nc.Sigma = cfg.Sigma
		sys, err := ncs.New(nc, rng.New(cfg.Seed+uint64(100+i)))
		if err != nil {
			return nil, err
		}
		if err := sys.ProgramWeights(w, hw.ProgramOptions{}); err != nil {
			return nil, err
		}
		specs[i] = fleet.MemberSpec{ID: fmt.Sprintf("m%d", i), Sys: sys, Weights: w}
	}
	fl, err := fleet.New(fleet.Config{}, specs)
	if err != nil {
		return nil, err
	}
	acc, err := fleetAccuracy(fl, testSet)
	if err != nil {
		return nil, err
	}
	return &Boot{
		Fleet:    fl,
		Inputs:   trainSet.Features(),
		Test:     testSet,
		Accuracy: acc,
	}, nil
}

// LoadSet returns the held-out test set a fleet booted with the same
// (scale, seed) was evaluated on — the load generator's input source,
// guaranteed to match the server's input dimension and labels.
func LoadSet(scale string, seed uint64) (*dataset.Set, error) {
	if scale == "" {
		scale = "quick"
	}
	if seed == 0 {
		seed = 42
	}
	p, err := bootProtoFor(scale)
	if err != nil {
		return nil, err
	}
	_, testSet, err := bootSets(p, seed)
	return testSet, err
}

// bootSets generates the train/test digit sets for a protocol,
// deterministic in the seed (same derivation as the experiment
// drivers: train from seed, test from seed+1).
func bootSets(p bootProtocol, seed uint64) (trainSet, testSet *dataset.Set, err error) {
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

// fleetAccuracy classifies the whole set through the router and returns
// the fraction answered correctly.
func fleetAccuracy(fl *fleet.Fleet, set *dataset.Set) (float64, error) {
	correct := 0
	for _, s := range set.Samples {
		r, err := fl.Classify(s.Pixels)
		if err != nil {
			return 0, err
		}
		if r.Class == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(set.Len()), nil
}
