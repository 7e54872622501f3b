package ncs

import (
	"math"
	"testing"

	"vortex/internal/mat"
	"vortex/internal/rng"
	"vortex/internal/xbar"
)

// TestScoresBatchMatchesScores checks the batched scoring path returns
// exactly what per-sample Scores calls return, with quantizing ADCs in
// the loop.
func TestScoresBatchMatchesScores(t *testing.T) {
	t.Run("circuit", func(t *testing.T) {
		cfg := DefaultConfig(12, 4)
		cfg.Sigma = 0.3
		n, err := New(cfg, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(2)
		w := mat.NewMatrix(12, 4)
		for i := range w.Data {
			w.Data[i] = 2*src.Float64() - 1
		}
		if err := n.ProgramWeights(w, xbar.ProgramOptions{}); err != nil {
			t.Fatal(err)
		}

		xs := make([][]float64, 10)
		for k := range xs {
			xs[k] = make([]float64, 12)
			for i := range xs[k] {
				xs[k][i] = src.Float64()
			}
		}
		batch, err := n.ScoresBatch(xs)
		if err != nil {
			t.Fatalf("ScoresBatch: %v", err)
		}
		if len(batch) != len(xs) {
			t.Fatalf("got %d rows, want %d", len(batch), len(xs))
		}
		// Copy before the per-sample reference calls: scoresInto reuses
		// internal scratch, and the batch rows must already be detached
		// from it.
		for k, x := range xs {
			want, err := n.Scores(x)
			if err != nil {
				t.Fatalf("Scores(%d): %v", k, err)
			}
			for j := range want {
				if d := math.Abs(batch[k][j] - want[j]); d > 1e-12 {
					t.Errorf("sample %d class %d: batch %g vs scores %g (diff %g)",
						k, j, batch[k][j], want[j], d)
				}
			}
		}
	})
}

// TestScoresBatchInputValidation checks bad rows abort the batch.
func TestScoresBatchInputValidation(t *testing.T) {
	n := newIdeal(t, 3, 2)
	if _, err := n.ScoresBatch([][]float64{{1, 0, 1}, {1}}); err == nil {
		t.Fatal("expected input length error for the short row")
	}
}
