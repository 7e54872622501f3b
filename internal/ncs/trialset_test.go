package ncs_test

import (
	"math"
	"testing"

	"vortex/internal/dataset"
	"vortex/internal/hw"
	"vortex/internal/mat"
	"vortex/internal/ncs"
	"vortex/internal/rng"
)

// trialSetConfig is a batch-eligible ensemble configuration with
// ADC quantization, write-level quantization, redundancy and both
// fabrication variation mechanisms enabled.
func trialSetConfig(inputs int) ncs.Config {
	cfg := ncs.DefaultConfig(inputs, dataset.NumClasses)
	cfg.Sigma = 0.4
	cfg.DefectRate = 0.03
	cfg.Redundancy = 6
	cfg.WriteLvls = 32
	return cfg
}

// testWeights draws a dense random logical weight matrix in [-1, 1].
func testWeights(rows, cols int, seed uint64) *mat.Matrix {
	src := rng.New(seed)
	w := mat.NewMatrix(rows, cols)
	for i := range w.Data {
		w.Data[i] = src.Float64()*2 - 1
	}
	return w
}

// digitSet generates a small digit set.
func digitSet(t *testing.T, n int) *dataset.Set {
	t.Helper()
	set, err := dataset.Generate(dataset.DefaultConfig(), n, rng.New(515))
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestTrialSetMatchesPerTrialNCS pins the ncs-level SoA contract:
// EvaluateAll over a seeded ensemble returns bit-identical rates to a
// loop of per-trial NCS instances built from the same seeds — including
// a partially filled last lane group, write quantization and the output
// ADC in the loop.
func TestTrialSetMatchesPerTrialNCS(t *testing.T) {
	set := digitSet(t, 24)
	cfg := trialSetConfig(set.Features())
	w := testWeights(cfg.Inputs, cfg.Outputs, 3)
	seeds := []uint64{101, 211, 307, 401, 503, 601, 701, 809, 907, 1009, 1103}
	ts, err := ncs.NewTrialSet(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Trials() != len(seeds) {
		t.Fatalf("Trials() = %d, want %d", ts.Trials(), len(seeds))
	}
	if err := ts.ProgramWeights(w, hw.ProgramOptions{}); err != nil {
		t.Fatal(err)
	}
	rates, err := ts.EvaluateAll(set)
	if err != nil {
		t.Fatal(err)
	}
	for k, seed := range seeds {
		sys, err := ncs.New(cfg, rng.New(seed))
		if err != nil {
			t.Fatalf("trial %d: %v", k, err)
		}
		if err := sys.ProgramWeights(w, hw.ProgramOptions{}); err != nil {
			t.Fatalf("trial %d: %v", k, err)
		}
		want, err := sys.Evaluate(set)
		if err != nil {
			t.Fatalf("trial %d: %v", k, err)
		}
		if math.Float64bits(rates[k]) != math.Float64bits(want) {
			t.Errorf("trial %d (seed %d): batch rate %v, per-trial %v", k, seed, rates[k], want)
		}
	}
}

// TestTrialSetInjectVariation checks the batched redraw matches the
// per-trial NCS arrays' InjectVariation from the same seeds and split
// order.
func TestTrialSetInjectVariation(t *testing.T) {
	set := digitSet(t, 12)
	cfg := trialSetConfig(set.Features())
	w := testWeights(cfg.Inputs, cfg.Outputs, 9)
	seeds := []uint64{21, 22, 23, 24, 25}
	varSeeds := []uint64{91, 92, 93, 94, 95}
	ts, err := ncs.NewTrialSet(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.ProgramWeights(w, hw.ProgramOptions{}); err != nil {
		t.Fatal(err)
	}
	const sigma2 = 0.8
	if err := ts.InjectVariation(sigma2, varSeeds); err != nil {
		t.Fatal(err)
	}
	rates, err := ts.EvaluateAll(set)
	if err != nil {
		t.Fatal(err)
	}
	for k, seed := range seeds {
		sys, err := ncs.New(cfg, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.ProgramWeights(w, hw.ProgramOptions{}); err != nil {
			t.Fatal(err)
		}
		vsrc := rng.New(varSeeds[k])
		type injector interface {
			InjectVariation(sigma float64, src *rng.Source)
		}
		sys.Pos.(injector).InjectVariation(sigma2, vsrc.Split())
		sys.Neg.(injector).InjectVariation(sigma2, vsrc.Split())
		sys.Invalidate()
		want, err := sys.Evaluate(set)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(rates[k]) != math.Float64bits(want) {
			t.Errorf("trial %d: post-redraw batch rate %v, per-trial %v", k, rates[k], want)
		}
	}
	if err := ts.InjectVariation(0.1, varSeeds[:2]); err == nil {
		t.Error("seed count mismatch not rejected")
	}
}

// TestTrialSetRejectsIneligibleConfigs checks the hoisting validity
// conditions are enforced at construction.
func TestTrialSetRejectsIneligibleConfigs(t *testing.T) {
	seeds := []uint64{1, 2}
	bad := []struct {
		name   string
		mutate func(*ncs.Config)
	}{
		{"rwire", func(c *ncs.Config) { c.RWire = 2.5 }},
		{"sigma-cycle", func(c *ncs.Config) { c.SigmaCycle = 0.02 }},
		{"disturb", func(c *ncs.Config) { c.Disturb = true }},
	}
	for _, tc := range bad {
		cfg := trialSetConfig(16)
		tc.mutate(&cfg)
		if _, err := ncs.NewTrialSet(cfg, seeds); err == nil {
			t.Errorf("%s: ineligible config accepted", tc.name)
		}
	}
	if _, err := ncs.NewTrialSet(trialSetConfig(16), nil); err == nil {
		t.Error("empty seed list accepted")
	}
}

// TestTrialSetEvaluateAllocsSteadyState checks the evaluation loop's
// per-sample cost allocates nothing once the scratch and tensors are
// warm.
func TestTrialSetEvaluateAllocsSteadyState(t *testing.T) {
	set := digitSet(t, 8)
	cfg := trialSetConfig(set.Features())
	ts, err := ncs.NewTrialSet(cfg, []uint64{5, 6, 7, 8, 9, 10, 11, 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.ProgramWeights(testWeights(cfg.Inputs, cfg.Outputs, 1), hw.ProgramOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.EvaluateAll(set); err != nil { // warm scratch + tensors
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ts.EvaluateAll(set); err != nil {
			t.Fatal(err)
		}
	})
	// EvaluateAll allocates only its two result slices (correct counts
	// and rates), independent of the sample count.
	if allocs > 2 {
		t.Errorf("EvaluateAll allocates %.1f objects/run, want <= 2", allocs)
	}
}

// BenchmarkTrialSetEvaluateAll times the batched evaluation loop at the
// paper's full-scale geometry (784 inputs, 32 trials) — the dominant
// phase of a vectorized ensemble sweep.
func BenchmarkTrialSetEvaluateAll(b *testing.B) {
	set, err := dataset.Generate(dataset.DefaultConfig(), 512, rng.New(515))
	if err != nil {
		b.Fatal(err)
	}
	cfg := ncs.DefaultConfig(set.Features(), dataset.NumClasses)
	cfg.Sigma = 0.6
	cfg.ADCBits = 6
	seeds := make([]uint64, 32)
	for i := range seeds {
		seeds[i] = uint64(100*i + 11)
	}
	ts, err := ncs.NewTrialSet(cfg, seeds)
	if err != nil {
		b.Fatal(err)
	}
	if err := ts.ProgramWeights(testWeights(cfg.Inputs, cfg.Outputs, 1), hw.ProgramOptions{}); err != nil {
		b.Fatal(err)
	}
	if _, err := ts.EvaluateAll(set); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ts.EvaluateAll(set); err != nil {
			b.Fatal(err)
		}
	}
}
