package experiment

import (
	"context"
	"fmt"

	"vortex/internal/core"
	"vortex/internal/dataset"
	"vortex/internal/rng"
	"vortex/internal/train"
)

// Table1Result reproduces paper Table 1: "Vortex vs CLD at different
// crossbar sizes" — test and training rates for CLD with IR-drop, Vortex
// with IR-drop, and CLD without IR-drop, at 784/196/49 input rows
// (28x28, 14x14 and 7x7 benchmark resolutions).
type Table1Result struct {
	Sizes []int // number of input rows per column

	CLDIRTest     []float64
	CLDIRTrain    []float64
	VortexIRTest  []float64
	VortexIRTrain []float64
	CLDNoIRTest   []float64
	CLDNoIRTrain  []float64

	RWire      float64
	Sigma      float64
	Redundancy int
}

func (r *Table1Result) cells() ([]string, [][]string) {
	header := []string{"Number of rows"}
	for _, s := range r.Sizes {
		header = append(header, intS(s))
	}
	mk := func(name string, vals []float64) []string {
		row := []string{name}
		for _, v := range vals {
			row = append(row, pct(v))
		}
		return row
	}
	rows := [][]string{
		mk("Test  CLD w/ IR-drop", r.CLDIRTest),
		mk("Test  Vortex w/ IR-drop", r.VortexIRTest),
		mk("Test  CLD w/o IR-drop", r.CLDNoIRTest),
		mk("Train CLD w/ IR-drop", r.CLDIRTrain),
		mk("Train Vortex w/ IR-drop", r.VortexIRTrain),
		mk("Train CLD w/o IR-drop", r.CLDNoIRTrain),
	}
	return header, rows
}

// Table renders the result as an aligned text table.
func (r *Table1Result) Table() string { return textTable(r.cells()) }

// CSV renders the result as comma-separated values for plotting.
func (r *Table1Result) CSV() string { return csvTable(r.cells()) }

// Annotation implements Result.
func (r *Table1Result) Annotation() string {
	return fmt.Sprintf("(r_wire=%.1f ohm, sigma=%.1f, redundancy=%d at 784 rows)\n",
		r.RWire, r.Sigma, r.Redundancy)
}

func init() {
	register(Runner{
		Name:        "table1",
		Description: "Table 1 — Vortex vs CLD at 784/196/49 rows, with and without IR-drop",
		Run: func(ctx context.Context, s Scale, seed uint64) (Result, error) {
			return Table1(ctx, s, seed)
		},
	})
}

// Table1 runs the size sweep of paper Sec. 5.4. The wire resistance is
// 2.5 ohm per segment as in the paper; sigma is 0.6 and Vortex uses the
// paper's default 100 redundant rows (scaled down with the array at the
// smaller sizes). At Quick scale the 784-row column is dropped to keep
// test runtime bounded — benchmarks and CLI runs use Default/Full, which
// cover all three paper sizes.
func Table1(ctx context.Context, scale Scale, seed uint64) (*Table1Result, error) {
	p := protoFor(scale)
	// Generate once at full resolution; undersample per size.
	cfg := dataset.DefaultConfig()
	train28, err := dataset.GenerateBalanced(cfg, p.perClassTrain, rng.New(seed))
	if err != nil {
		return nil, err
	}
	test28, err := dataset.GenerateBalanced(cfg, p.perClassTest, rng.New(seed+1))
	if err != nil {
		return nil, err
	}
	factors := []int{1, 2, 4}
	if scale == Quick {
		factors = []int{2, 4}
	}
	const rwire = 2.5
	const sigma = 0.6
	res := &Table1Result{RWire: rwire, Sigma: sigma, Redundancy: 100}

	for _, factor := range factors {
		if err := ctx.Err(); err != nil {
			if partialSweep(ctx) {
				break // render the sizes already measured
			}
			return nil, err
		}
		trainSet, err := dataset.Undersample(train28, factor, dataset.Decimate)
		if err != nil {
			return nil, err
		}
		testSet, err := dataset.Undersample(test28, factor, dataset.Decimate)
		if err != nil {
			return nil, err
		}
		inputs := trainSet.Features()
		res.Sizes = append(res.Sizes, inputs)
		// Scale the redundant pool with the array: 100 rows at 784 inputs.
		red := res.Redundancy * inputs / 784
		if red < 4 {
			red = 4
		}

		// CLD with IR-drop.
		nCLD, err := buildNCS(inputs, 0, sigma, rwire, 6, seed+uint64(2*factor))
		if err != nil {
			return nil, err
		}
		cldRes, err := train.CLD(nCLD, trainSet, train.CLDConfig{Epochs: p.cldEpochs},
			rng.New(seed+uint64(3*factor)))
		if err != nil {
			return nil, err
		}
		rate, err := nCLD.Evaluate(testSet)
		if err != nil {
			return nil, err
		}
		res.CLDIRTest = append(res.CLDIRTest, rate)
		res.CLDIRTrain = append(res.CLDIRTrain, cldRes.TrainRate)

		// Vortex with IR-drop.
		nV, err := buildNCS(inputs, red, sigma, rwire, 6, seed+uint64(2*factor))
		if err != nil {
			return nil, err
		}
		vcfg := core.DefaultVortexConfig()
		vcfg.SGD = p.sgd
		vcfg.SelfTune = train.SelfTuneConfig{MCRuns: p.mcRuns, SGD: p.sgd}
		vRes, err := core.TrainVortex(nV, trainSet, vcfg, rng.New(seed+uint64(5*factor)))
		if err != nil {
			return nil, err
		}
		rate, err = nV.Evaluate(testSet)
		if err != nil {
			return nil, err
		}
		res.VortexIRTest = append(res.VortexIRTest, rate)
		res.VortexIRTrain = append(res.VortexIRTrain, vRes.TrainRate)

		// CLD without IR-drop.
		nRef, err := buildNCS(inputs, 0, sigma, 0, 6, seed+uint64(2*factor))
		if err != nil {
			return nil, err
		}
		refRes, err := train.CLD(nRef, trainSet, train.CLDConfig{Epochs: p.cldEpochs},
			rng.New(seed+uint64(3*factor)))
		if err != nil {
			return nil, err
		}
		rate, err = nRef.Evaluate(testSet)
		if err != nil {
			return nil, err
		}
		res.CLDNoIRTest = append(res.CLDNoIRTest, rate)
		res.CLDNoIRTrain = append(res.CLDNoIRTrain, refRes.TrainRate)
	}
	return res, nil
}
