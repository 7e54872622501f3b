package hw_test

import (
	"math"
	"sync"
	"testing"

	"vortex/internal/device"
	"vortex/internal/hw"
	"vortex/internal/mat"
	"vortex/internal/rng"
	"vortex/internal/xbar"
)

// trialBatchConfig is a batch-eligible ensemble configuration with both
// variation mechanisms the batch must reproduce.
func trialBatchConfig() hw.Config {
	return hw.Config{
		Rows:       64,
		Cols:       10,
		Model:      device.DefaultSwitchModel(),
		Sigma:      0.3,
		DefectRate: 0.05,
	}
}

// trialSeeds derives the per-trial fabrication seeds of an ensemble.
func trialSeeds(n int, base uint64) []uint64 {
	seeds := make([]uint64, n)
	for t := range seeds {
		seeds[t] = base + 100*uint64(t) + 11
	}
	return seeds
}

// sources instantiates one rng source per seed.
func sources(seeds []uint64) []*rng.Source {
	srcs := make([]*rng.Source, len(seeds))
	for t, s := range seeds {
		srcs[t] = rng.New(s)
	}
	return srcs
}

// trialTargets builds a varied in-range target resistance matrix.
func trialTargets(cfg hw.Config) *mat.Matrix {
	targets := mat.NewMatrix(cfg.Rows, cfg.Cols)
	for i := 0; i < cfg.Rows; i++ {
		for j := 0; j < cfg.Cols; j++ {
			targets.Set(i, j, 20e3*float64(1+(i+3*j)%7))
		}
	}
	return targets
}

// perTrialReference fabricates and programs the per-trial circuit-array
// ensemble the batch must match lane for lane.
func perTrialReference(t *testing.T, cfg hw.Config, seeds []uint64, targets *mat.Matrix) []*xbar.Crossbar {
	t.Helper()
	arrs := make([]*xbar.Crossbar, len(seeds))
	for k, s := range seeds {
		arr, err := xbar.New(cfg, rng.New(s))
		if err != nil {
			t.Fatalf("trial %d: %v", k, err)
		}
		if targets != nil {
			if err := arr.ProgramTargets(targets, hw.ProgramOptions{}); err != nil {
				t.Fatalf("trial %d: program: %v", k, err)
			}
		}
		arrs[k] = arr
	}
	return arrs
}

// requireLaneParity asserts every trial lane's conductances and reads
// are bit-identical to the per-trial reference arrays.
func requireLaneParity(t *testing.T, b *hw.TrialBatch, arrs []*xbar.Crossbar, drive []float64) {
	t.Helper()
	for k, arr := range arrs {
		want := arr.Conductances()
		got := b.LaneConductances(k)
		for idx := range want.Data {
			if math.Float64bits(got.Data[idx]) != math.Float64bits(want.Data[idx]) {
				t.Fatalf("trial %d cell %d: batch conductance %x, per-trial %x",
					k, idx, math.Float64bits(got.Data[idx]), math.Float64bits(want.Data[idx]))
			}
		}
	}
	cols := arrs[0].Cols()
	dst := make([]float64, cols*mat.TrialLanes)
	ref := make([]float64, cols)
	for g := 0; g < b.Groups(); g++ {
		if err := b.ReadLanesInto(g, dst, drive); err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
		for lane := 0; lane < b.GroupLanes(g); lane++ {
			k := g*mat.TrialLanes + lane
			if err := arrs[k].ReadInto(ref, drive); err != nil {
				t.Fatalf("trial %d: %v", k, err)
			}
			for j := 0; j < cols; j++ {
				got, want := dst[j*mat.TrialLanes+lane], ref[j]
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d col %d: batch read %x, per-trial %x",
						k, j, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
}

// TestTrialBatchMatchesPerTrialArrays pins the SoA kernel's core
// contract: fabrication draws, hoisted open-loop programming and fused
// lane reads are bit-identical to an ensemble of per-trial circuit
// arrays built from the same seeds — including a partially filled last
// lane group.
func TestTrialBatchMatchesPerTrialArrays(t *testing.T) {
	cfg := trialBatchConfig()
	for _, trials := range []int{1, 8, 13} {
		seeds := trialSeeds(trials, 4242)
		targets := trialTargets(cfg)
		arrs := perTrialReference(t, cfg, seeds, targets)
		b, err := hw.NewTrialBatch(cfg, sources(seeds))
		if err != nil {
			t.Fatalf("trials=%d: %v", trials, err)
		}
		if b.Trials() != trials {
			t.Fatalf("Trials() = %d, want %d", b.Trials(), trials)
		}
		if err := b.ProgramTargets(targets, hw.ProgramOptions{}); err != nil {
			t.Fatalf("trials=%d: program: %v", trials, err)
		}
		drive := make([]float64, cfg.Rows)
		src := rng.New(99)
		for i := range drive {
			if src.Float64() < 0.3 {
				continue // keep the crossbar's sparsity pattern
			}
			drive[i] = src.Float64()
		}
		requireLaneParity(t, b, arrs, drive)
	}
}

// TestTrialBatchResetAndReprogram checks ResetAll restores the shared
// driven state so a second programming pass matches freshly reset
// per-trial arrays.
func TestTrialBatchResetAndReprogram(t *testing.T) {
	cfg := trialBatchConfig()
	seeds := trialSeeds(9, 7)
	first := trialTargets(cfg)
	b, err := hw.NewTrialBatch(cfg, sources(seeds))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ProgramTargets(first, hw.ProgramOptions{}); err != nil {
		t.Fatal(err)
	}
	b.ResetAll()
	second := mat.NewMatrix(cfg.Rows, cfg.Cols)
	second.Fill(150e3)
	if err := b.ProgramTargets(second, hw.ProgramOptions{}); err != nil {
		t.Fatal(err)
	}
	arrs := perTrialReference(t, cfg, seeds, nil)
	for k, arr := range arrs {
		if err := arr.ProgramTargets(first, hw.ProgramOptions{}); err != nil {
			t.Fatalf("trial %d: %v", k, err)
		}
		arr.ResetAll()
		if err := arr.ProgramTargets(second, hw.ProgramOptions{}); err != nil {
			t.Fatalf("trial %d: %v", k, err)
		}
	}
	requireLaneParity(t, b, arrs, rampInput(cfg.Rows))
}

// TestTrialBatchInjectVariation checks the batched variation-injection
// kernel redraws every lane exactly as Crossbar.InjectVariation does
// from the same sources.
func TestTrialBatchInjectVariation(t *testing.T) {
	cfg := trialBatchConfig()
	seeds := trialSeeds(11, 31)
	targets := trialTargets(cfg)
	arrs := perTrialReference(t, cfg, seeds, targets)
	b, err := hw.NewTrialBatch(cfg, sources(seeds))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ProgramTargets(targets, hw.ProgramOptions{}); err != nil {
		t.Fatal(err)
	}
	const sigma2 = 0.55
	varSeeds := trialSeeds(len(seeds), 900)
	for k, arr := range arrs {
		arr.InjectVariation(sigma2, rng.New(varSeeds[k]))
	}
	if err := b.InjectVariation(sigma2, sources(varSeeds)); err != nil {
		t.Fatal(err)
	}
	requireLaneParity(t, b, arrs, rampInput(cfg.Rows))
	if err := b.InjectVariation(0.1, sources(varSeeds[:3])); err == nil {
		t.Fatal("source count mismatch not rejected")
	}
}

// TestTrialBatchRejectsIneligibleConfigs checks every validity condition
// of the hoisted batch is enforced at construction.
func TestTrialBatchRejectsIneligibleConfigs(t *testing.T) {
	srcs := sources(trialSeeds(4, 1))
	bad := []struct {
		name   string
		mutate func(*hw.Config)
	}{
		{"rwire", func(c *hw.Config) { c.RWire = 2.5 }},
		{"disturb", func(c *hw.Config) { c.Disturb = true }},
		{"sigma-cycle", func(c *hw.Config) { c.SigmaCycle = 0.01 }},
	}
	for _, tc := range bad {
		cfg := trialBatchConfig()
		tc.mutate(&cfg)
		if _, err := hw.NewTrialBatch(cfg, srcs); err == nil {
			t.Errorf("%s: ineligible config accepted", tc.name)
		}
	}
	if _, err := hw.NewTrialBatch(trialBatchConfig(), nil); err == nil {
		t.Error("empty source list accepted")
	}
}

// TestTrialBatchStatsMatchPerTrial checks the hoisted pass reports the
// same per-trial pulse cost as one scalar array (energy excepted — the
// batch documents it as untracked).
func TestTrialBatchStatsMatchPerTrial(t *testing.T) {
	cfg := trialBatchConfig()
	seeds := trialSeeds(5, 77)
	targets := trialTargets(cfg)
	arrs := perTrialReference(t, cfg, seeds, targets)
	b, err := hw.NewTrialBatch(cfg, sources(seeds))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ProgramTargets(targets, hw.ProgramOptions{}); err != nil {
		t.Fatal(err)
	}
	got, want := b.Stats(), arrs[0].Stats()
	if got.Pulses != want.Pulses || got.Batches != want.Batches {
		t.Fatalf("batch stats %+v, per-trial %+v", got, want)
	}
	if got.PulseTime != want.PulseTime {
		t.Fatalf("batch pulse time %v, per-trial %v", got.PulseTime, want.PulseTime)
	}
	b.ResetStats()
	if b.Stats().Pulses != 0 {
		t.Fatal("ResetStats did not clear counters")
	}
}

// TestTrialBatchConcurrentReaders hammers one freshly programmed batch
// from many goroutines — including the very first reads, so the lazy
// tensor build races with itself — and checks under -race that every
// reader observes the same published tensor values.
func TestTrialBatchConcurrentReaders(t *testing.T) {
	cfg := trialBatchConfig()
	seeds := trialSeeds(16, 5150)
	b, err := hw.NewTrialBatch(cfg, sources(seeds))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ProgramTargets(trialTargets(cfg), hw.ProgramOptions{}); err != nil {
		t.Fatal(err)
	}
	drive := rampInput(cfg.Rows)
	ref := make([]float64, cfg.Cols*mat.TrialLanes)
	const workers = 8
	results := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		results[w] = make([]float64, cfg.Cols*mat.TrialLanes)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				for g := 0; g < b.Groups(); g++ {
					if err := b.ReadLanesInto(g, results[w], drive); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := b.ReadLanesInto(b.Groups()-1, ref, drive); err != nil {
		t.Fatal(err)
	}
	for w := range results {
		for k := range ref {
			if math.Float64bits(results[w][k]) != math.Float64bits(ref[k]) {
				t.Fatalf("worker %d slot %d: %x, want %x",
					w, k, math.Float64bits(results[w][k]), math.Float64bits(ref[k]))
			}
		}
	}
}

// TestTrialBatchReadAllocsZero is the steady-state zero-alloc guard at
// the hw layer: once the group tensors are built, fused lane reads must
// not allocate.
func TestTrialBatchReadAllocsZero(t *testing.T) {
	cfg := trialBatchConfig()
	b, err := hw.NewTrialBatch(cfg, sources(trialSeeds(16, 8)))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ProgramTargets(trialTargets(cfg), hw.ProgramOptions{}); err != nil {
		t.Fatal(err)
	}
	drive := rampInput(cfg.Rows)
	dst := make([]float64, cfg.Cols*mat.TrialLanes)
	for g := 0; g < b.Groups(); g++ { // warm the tensor caches
		if err := b.ReadLanesInto(g, dst, drive); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for g := 0; g < b.Groups(); g++ {
			if err := b.ReadLanesInto(g, dst, drive); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state ReadLanesInto allocates %.1f objects/op, want 0", allocs)
	}
}
