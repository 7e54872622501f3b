package experiment

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vortex/internal/core"
	"vortex/internal/dataset"
	"vortex/internal/mat"
	"vortex/internal/obs"
	"vortex/internal/rng"
	"vortex/internal/train"
)

// vecCtx builds a decorated-run context carrying a vectorize policy, the
// way instrumentRun would install it.
func vecCtx(pol VecPolicy) context.Context {
	st := newSweepState("vectest", Quick, 7, RunConfig{Vectorize: pol})
	return withSweepState(context.Background(), st)
}

// ensembleFixture generates the quick-scale sets and a spec over four
// fabrication seeds for the given logical weights.
func ensembleFixture(t *testing.T, w *mat.Matrix, trainSet, testSet *dataset.Set) ensembleSpec {
	t.Helper()
	return ensembleSpec{
		inputs: trainSet.Features(), sigma: 0.6, adcBits: 6,
		weights: w, set: testSet,
		seeds: []uint64{811, 911, 1011, 1111},
	}
}

// schemeWeights trains the three paper schemes at quick scale and
// returns their logical weight matrices: open-loop off-device (software
// GDT), close-loop on-device, and the Vortex pipeline.
func schemeWeights(t *testing.T, trainSet *dataset.Set) map[string]*mat.Matrix {
	t.Helper()
	p := protoFor(Quick)
	old, err := train.SoftwareGDT(trainSet, dataset.NumClasses, p.sgd, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	cldNCS, err := buildNCS(trainSet.Features(), 0, 0.3, 0, 6, 33)
	if err != nil {
		t.Fatal(err)
	}
	cld, err := train.CLD(cldNCS, trainSet, train.CLDConfig{Epochs: 4}, rng.New(35))
	if err != nil {
		t.Fatal(err)
	}
	vxNCS, err := buildNCS(trainSet.Features(), 4, 0.3, 0, 6, 37)
	if err != nil {
		t.Fatal(err)
	}
	vx, err := core.TrainVortex(vxNCS, trainSet, core.VortexConfig{
		UseAMP: true, Gamma: 0.1, SigmaOverride: 0.6, SGD: p.sgd,
	}, rng.New(39))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*mat.Matrix{"old": old, "cld": cld.Weights, "vortex": vx.Weights}
}

// TestEnsembleRatesSchemeParity is the PR's core parity suite: for
// weights produced by each of the three training schemes, an ensemble
// sweep over four fabrication seeds must return bit-identical per-trial
// test rates whether it runs the trial-vectorized fast path (VecAuto)
// or the per-trial scalar engine (VecScalar).
func TestEnsembleRatesSchemeParity(t *testing.T) {
	p := protoFor(Quick)
	trainSet, testSet, err := digitSets(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	vecTrials := obs.Default().Counter("experiment.vec.trials")
	for name, w := range schemeWeights(t, trainSet) {
		spec := ensembleFixture(t, w, trainSet, testSet)
		before := vecTrials.Value()
		fast, fdone, err := ensembleRates(vecCtx(VecAuto), spec)
		if err != nil {
			t.Fatalf("%s: auto: %v", name, err)
		}
		if got := vecTrials.Value() - before; got != int64(len(spec.seeds)) {
			t.Fatalf("%s: vectorized %d of %d trials under VecAuto", name, got, len(spec.seeds))
		}
		slow, sdone, err := ensembleRates(vecCtx(VecScalar), spec)
		if err != nil {
			t.Fatalf("%s: scalar: %v", name, err)
		}
		for i := range spec.seeds {
			if !fdone[i] || !sdone[i] {
				t.Fatalf("%s: trial %d incomplete (auto=%v scalar=%v)", name, i, fdone[i], sdone[i])
			}
			if math.Float64bits(fast[i]) != math.Float64bits(slow[i]) {
				t.Errorf("%s: trial %d: vectorized rate %v, scalar %v", name, i, fast[i], slow[i])
			}
		}
	}
}

// TestVecEligibility checks eligibility is a physics predicate: an
// ideal-wire sweep vectorizes under the default policy at any scale,
// while wire parasitics, per-trial hardware mutation and the scalar
// policy keep it on the per-trial engine.
func TestVecEligibility(t *testing.T) {
	ideal := ensembleSpec{}
	cases := []struct {
		name string
		spec ensembleSpec
		pol  VecPolicy
		want bool
	}{
		{"auto-ideal", ideal, VecAuto, true},
		{"scalar-ideal", ideal, VecScalar, false},
		{"auto-wired", ensembleSpec{rwire: 2.5}, VecAuto, false},
		{"scalar-wired", ensembleSpec{rwire: 2.5}, VecScalar, false},
		{"mutates-hardware", ensembleSpec{mutatesHardware: true}, VecAuto, false},
	}
	for _, tc := range cases {
		ok, reason := vecEligible(tc.spec, tc.pol)
		if ok != tc.want {
			t.Errorf("%s: eligible=%v (reason %q), want %v", tc.name, ok, reason, tc.want)
		}
		if !ok && reason == "" {
			t.Errorf("%s: ineligibility must carry a reason", tc.name)
		}
	}
}

// TestSoaSweepQuickVectorizes runs the soasweep driver at Quick scale and
// counts the trials that took the vectorized path: all 16 under the
// default policy, with no fallback, and none under VecScalar.
func TestSoaSweepQuickVectorizes(t *testing.T) {
	r, ok := Lookup("soasweep")
	if !ok {
		t.Fatal("soasweep runner not registered")
	}
	vecTrials := obs.Default().Counter("experiment.vec.trials")
	fallbacks := obs.Default().Counter("experiment.vec.fallbacks")
	for _, tc := range []struct {
		pol  VecPolicy
		want int64
	}{
		{VecAuto, int64(soaTrials(Quick))},
		{VecScalar, 0},
	} {
		trials0, fallbacks0 := vecTrials.Value(), fallbacks.Value()
		ctx := WithRunConfig(context.Background(), RunConfig{Vectorize: tc.pol})
		if _, err := r.Run(ctx, Quick, 42); err != nil {
			t.Fatalf("%v: %v", tc.pol, err)
		}
		if got := vecTrials.Value() - trials0; got != tc.want {
			t.Errorf("%v: experiment.vec.trials rose by %d, want %d", tc.pol, got, tc.want)
		}
		if got := fallbacks.Value() - fallbacks0; got != 0 {
			t.Errorf("%v: experiment.vec.fallbacks rose by %d, want 0", tc.pol, got)
		}
	}
}

// TestMutatingSweepNeverVectorized is the eligibility guard end to end:
// a sweep marked as mutating hardware per trial runs the scalar engine
// even under VecAuto, and its results match a VecScalar run exactly.
func TestMutatingSweepNeverVectorized(t *testing.T) {
	p := protoFor(Quick)
	trainSet, testSet, err := digitSets(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	w, err := train.SoftwareGDT(trainSet, dataset.NumClasses, p.sgd, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	spec := ensembleFixture(t, w, trainSet, testSet)
	spec.mutatesHardware = true
	vecTrials := obs.Default().Counter("experiment.vec.trials")
	before := vecTrials.Value()
	auto, adone, err := ensembleRates(vecCtx(VecAuto), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := vecTrials.Value() - before; got != 0 {
		t.Fatalf("mutating sweep vectorized %d trials under VecAuto, want 0", got)
	}
	scalar, sdone, err := ensembleRates(vecCtx(VecScalar), spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range spec.seeds {
		if !adone[i] || !sdone[i] {
			t.Fatalf("trial %d incomplete", i)
		}
		if math.Float64bits(auto[i]) != math.Float64bits(scalar[i]) {
			t.Errorf("trial %d: auto %v, scalar %v", i, auto[i], scalar[i])
		}
	}
}

// TestBatchStageFallback checks a failing or panicking batch evaluator
// degrades to the per-trial engine with correct results and a fallback
// counter tick, never an error or a crash.
func TestBatchStageFallback(t *testing.T) {
	fallbacks := obs.Default().Counter("experiment.vec.fallbacks")
	for _, tc := range []struct {
		name  string
		batch func(ctx context.Context, idxs []int) ([]int, error)
	}{
		{"error", func(ctx context.Context, idxs []int) ([]int, error) { return nil, errors.New("boom") }},
		{"panic", func(ctx context.Context, idxs []int) ([]int, error) { panic("boom") }},
		{"short", func(ctx context.Context, idxs []int) ([]int, error) { return make([]int, len(idxs)-1), nil }},
	} {
		before := fallbacks.Value()
		var scalarRuns atomic.Int64
		vals, done, err := parallelTrialsBatch(context.Background(), 7, tc.batch,
			func(tr Trial) (int, error) { scalarRuns.Add(1); return tr.Index * 10, nil })
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := range vals {
			if !done[i] || vals[i] != i*10 {
				t.Fatalf("%s: trial %d: done=%v val=%d", tc.name, i, done[i], vals[i])
			}
		}
		if got := scalarRuns.Load(); got != 7 {
			t.Errorf("%s: scalar engine ran %d trials, want 7", tc.name, got)
		}
		if fallbacks.Value() != before+1 {
			t.Errorf("%s: fallback counter did not tick", tc.name)
		}
	}
}

// TestBatchStageChunksAndBookkeeping checks the vectorized stage hands
// the evaluator disjoint, contiguous, index-ordered chunks of at most
// vecChunk trials that together cover every trial, and records every
// completed trial in the shared mask. Chunks run concurrently, so only
// the chunk shapes are asserted, never the order of the calls.
func TestBatchStageChunksAndBookkeeping(t *testing.T) {
	const n = vecChunk*2 + 5
	var (
		mu    sync.Mutex
		calls [][]int
	)
	vals, done, err := parallelTrialsBatch(context.Background(), n,
		func(ctx context.Context, idxs []int) ([]int, error) {
			mu.Lock()
			calls = append(calls, append([]int(nil), idxs...))
			mu.Unlock()
			out := make([]int, len(idxs))
			for k, i := range idxs {
				out[k] = i * 10
			}
			return out, nil
		},
		func(tr Trial) (int, error) {
			t.Errorf("scalar engine ran trial %d; batch stage should have completed all", tr.Index)
			return tr.Index * 10, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 3 {
		t.Fatalf("batch evaluator called %d times, want 3", len(calls))
	}
	seen := make([]int, n)
	for _, chunk := range calls {
		if len(chunk) == 0 || len(chunk) > vecChunk {
			t.Fatalf("chunk of %d trials, want 1..vecChunk=%d", len(chunk), vecChunk)
		}
		for k, i := range chunk {
			if k > 0 && i != chunk[k-1]+1 {
				t.Fatalf("chunk %v is not contiguous and index-ordered", chunk)
			}
			seen[i]++
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("trial %d handed to the evaluator %d times, want exactly once", i, c)
		}
	}
	for i := range vals {
		if !done[i] || vals[i] != i*10 {
			t.Fatalf("trial %d: done=%v val=%d", i, done[i], vals[i])
		}
	}
}

// TestBatchStageChunkFailsMidSweep fails batch chunks of an eight-chunk
// sweep and checks the fallback rule: chunks that completed keep their
// values, the scalar engine runs exactly the trials the batch stage did
// not complete — no trial computed by both, none by neither — and the
// fallback counter ticks exactly once per sweep. In the second case the
// two workers' chunks fail together, and no later chunk may start.
func TestBatchStageChunkFailsMidSweep(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const chunks = 8
	const n = chunks * vecChunk
	fallbacks := obs.Default().Counter("experiment.vec.fallbacks")
	for _, tc := range []struct {
		name     string
		fail     func(first int) bool
		together bool // the first two failing calls wait for each other
	}{
		{"chunk 3 fails", func(first int) bool { return first == 3*vecChunk }, false},
		{"chunks 0 and 1 fail together", func(int) bool { return true }, true},
	} {
		before := fallbacks.Value()
		var (
			mu      sync.Mutex
			batched = make([]int, n)
			scalar  = make([]int, n)
			calls   atomic.Int64
			entered atomic.Int64
			both    = make(chan struct{})
		)
		vals, done, err := parallelTrialsBatch(context.Background(), n,
			func(ctx context.Context, idxs []int) ([]int, error) {
				calls.Add(1)
				if tc.fail(idxs[0]) {
					if tc.together {
						if entered.Add(1) == 2 {
							close(both)
						}
						waitFor(t, both, tc.name+": the second failing chunk")
					}
					return nil, errors.New("chunk failed")
				}
				mu.Lock()
				for _, i := range idxs {
					batched[i]++
				}
				mu.Unlock()
				out := make([]int, len(idxs))
				for k, i := range idxs {
					out[k] = i * 10
				}
				return out, nil
			},
			func(tr Trial) (int, error) {
				mu.Lock()
				scalar[tr.Index]++
				mu.Unlock()
				return tr.Index * 10, nil
			})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := range vals {
			if !done[i] || vals[i] != i*10 {
				t.Fatalf("%s: trial %d: done=%v val=%d", tc.name, i, done[i], vals[i])
			}
			if batched[i]+scalar[i] != 1 {
				t.Fatalf("%s: trial %d computed %d times by the batch stage and %d by the scalar engine, want exactly once in all",
					tc.name, i, batched[i], scalar[i])
			}
			if tc.fail(i/vecChunk*vecChunk) && scalar[i] != 1 {
				t.Fatalf("%s: trial %d of a failed chunk not re-run by the scalar engine", tc.name, i)
			}
		}
		if tc.together && calls.Load() != 2 {
			t.Errorf("%s: %d chunks started, want only the 2 that failed together", tc.name, calls.Load())
		}
		if got := fallbacks.Value() - before; got != 1 {
			t.Errorf("%s: fallback counter rose by %d, want 1", tc.name, got)
		}
	}
}

// waitFor blocks until ch is closed, failing the test instead of hanging
// when a schedule the test relies on never happens.
func waitFor(t *testing.T, ch <-chan struct{}, what string) {
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Errorf("%s never happened", what)
	}
}

// TestBatchStageCancelMidStage cancels the sweep from inside one of two
// concurrently running chunks. Both running chunks finish and keep their
// values; no later chunk starts, the scalar engine runs nothing, and the
// sweep reports the cancellation once — as ctx.Err() in the classic
// contract, as holes in the completion mask in partial mode. A
// cancellation is not a batch failure, so the fallback counter stays.
func TestBatchStageCancelMidStage(t *testing.T) {
	// Two workers make the schedule deterministic: chunk 1 cancels once
	// chunk 0 has started, and chunk 0 returns only after the
	// cancellation, so exactly those two chunks ever run.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n = 8 * vecChunk
	fallbacks := obs.Default().Counter("experiment.vec.fallbacks")
	for _, partial := range []bool{false, true} {
		before := fallbacks.Value()
		st := newSweepState("vectest", Quick, 7, RunConfig{Partial: partial})
		ctx, cancel := context.WithCancel(withSweepState(context.Background(), st))
		started, released := make(chan struct{}), make(chan struct{})
		var calls atomic.Int64
		vals, done, err := parallelTrialsBatch(ctx, n,
			func(ctx context.Context, idxs []int) ([]int, error) {
				calls.Add(1)
				switch idxs[0] {
				case 0:
					close(started)
					waitFor(t, released, "the cancellation in chunk 1")
				case vecChunk:
					waitFor(t, started, "the start of chunk 0")
					cancel()
					close(released)
				}
				out := make([]int, len(idxs))
				for k, i := range idxs {
					out[k] = i * 10
				}
				return out, nil
			},
			func(tr Trial) (int, error) {
				t.Errorf("partial=%v: scalar engine ran trial %d under a canceled context", partial, tr.Index)
				return tr.Index * 10, nil
			})
		cancel()
		if got := calls.Load(); got != 2 {
			t.Errorf("partial=%v: %d chunks started, want the 2 running at the cancellation", partial, got)
		}
		if got := fallbacks.Value() - before; got != 0 {
			t.Errorf("partial=%v: fallback counter rose by %d on a cancellation", partial, got)
		}
		if !partial {
			if !errors.Is(err, context.Canceled) || vals != nil {
				t.Fatalf("classic: got non-nil vals=%v err=%v, want nil vals and context.Canceled", vals != nil, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("partial: %v", err)
		}
		for i := range done {
			want := i < 2*vecChunk
			if done[i] != want || (want && vals[i] != i*10) {
				t.Fatalf("partial: trial %d: done=%v val=%d, want done=%v", i, done[i], vals[i], want)
			}
		}
		if got := st.missing.Load(); got != n-2*vecChunk {
			t.Errorf("partial: %d trials missing, want %d", got, n-2*vecChunk)
		}
	}
}

// TestBatchStageCheckpointResume checks checkpoint interop: trials
// replayed from a checkpoint never reach the batch evaluator, the batch
// stage persists its trials under the scalar keys, and a resumed run's
// output is bit-identical to an uninterrupted one.
func TestBatchStageCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	mk := func() context.Context {
		st := newSweepState("vectest", Quick, 7, RunConfig{CheckpointDir: dir, Partial: true})
		store, err := openCheckpoint(dir, "vectest", Quick, 7)
		if err != nil {
			t.Fatal(err)
		}
		st.store = store
		return withSweepState(context.Background(), st)
	}
	const n = 10
	// First pass: the batch stage fails, the scalar engine completes the
	// first half and abandons the rest (partial mode) — mixed bookkeeping.
	_, done, err := parallelTrialsBatch(mk(), n,
		func(ctx context.Context, idxs []int) ([]float64, error) { return nil, errors.New("cold start") },
		func(tr Trial) (float64, error) {
			if tr.Index >= n/2 {
				return 0, errors.New("simulated crash")
			}
			return float64(tr.Index) / 16, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n/2; i++ {
		if !done[i] {
			t.Fatalf("first pass lost trial %d", i)
		}
	}
	// Second pass: stored trials replay without touching the evaluators;
	// the batch stage computes exactly the missing half.
	var batched []int
	vals, done2, err := parallelTrialsBatch(mk(), n,
		func(ctx context.Context, idxs []int) ([]float64, error) {
			batched = append(batched, idxs...)
			out := make([]float64, len(idxs))
			for k, i := range idxs {
				out[k] = float64(i) / 16
			}
			return out, nil
		},
		func(tr Trial) (float64, error) {
			t.Errorf("scalar engine recomputed trial %d on resume", tr.Index)
			return float64(tr.Index) / 16, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(batched) != n/2 {
		t.Fatalf("resume batched %d trials, want the %d missing", len(batched), n/2)
	}
	for i := 0; i < n; i++ {
		if !done2[i] || math.Float64bits(vals[i]) != math.Float64bits(float64(i)/16) {
			t.Fatalf("resumed trial %d: done=%v val=%v", i, done2[i], vals[i])
		}
	}
}

// TestSoaSweepPolicyParity runs the soasweep driver end to end under
// VecAuto and VecScalar and requires byte-identical CSV — the in-process
// version of the CI parity smoke. Default scale runs 64 trials, two
// chunks, so the vectorized arm evaluates chunks concurrently.
func TestSoaSweepPolicyParity(t *testing.T) {
	r, ok := Lookup("soasweep")
	if !ok {
		t.Fatal("soasweep runner not registered")
	}
	run := func(pol VecPolicy) string {
		ctx := WithRunConfig(context.Background(), RunConfig{Vectorize: pol})
		res, err := r.Run(ctx, Default, 3)
		if err != nil {
			t.Fatal(err)
		}
		return res.CSV()
	}
	auto, scalar := run(VecAuto), run(VecScalar)
	if auto != scalar {
		t.Errorf("soasweep CSV differs between VecAuto and VecScalar:\n--- auto ---\n%s--- scalar ---\n%s", auto, scalar)
	}
}

// TestParseVecPolicy pins the flag surface.
func TestParseVecPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want VecPolicy
	}{{"", VecAuto}, {"auto", VecAuto}, {"scalar", VecScalar}} {
		got, err := ParseVecPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseVecPolicy(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Errorf("VecPolicy(%v).String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	for _, bad := range []string{"bogus", "force", "off"} {
		if _, err := ParseVecPolicy(bad); err == nil {
			t.Errorf("policy %q accepted", bad)
		}
	}
}
