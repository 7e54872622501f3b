package hw_test

import (
	"math"
	"testing"

	"vortex/internal/device"
	"vortex/internal/hw"
	"vortex/internal/mat"
	"vortex/internal/rng"
	"vortex/internal/xbar"
)

// equivTol bounds the read-parity checks below; in practice the compared
// paths are bit-identical.
const equivTol = 1e-12

func maxAbsDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func rampInput(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 0.1 + 0.9*float64(i)/float64(n)
	}
	return v
}

// batchConfig returns a mid-size array config; rwire > 0 exercises the
// parasitic solver, rwire == 0 the ideal-wire read.
func batchConfig(rwire float64) hw.Config {
	return hw.Config{
		Rows:  64,
		Cols:  8,
		Model: device.DefaultSwitchModel(),
		Sigma: 0.3,
		RWire: rwire,
	}
}

// buildProgrammed fabricates and open-loop programs one array.
func buildProgrammed(t *testing.T, cfg hw.Config, seed uint64) hw.Array {
	t.Helper()
	arr, err := xbar.New(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	targets := mat.NewMatrix(cfg.Rows, cfg.Cols)
	targets.Fill(100e3)
	if err := arr.ProgramTargets(targets, hw.ProgramOptions{}); err != nil {
		t.Fatalf("program: %v", err)
	}
	return arr
}

// randomBatch builds n random input vectors of the given width.
func randomBatch(n, width int, seed uint64) [][]float64 {
	src := rng.New(seed)
	vins := make([][]float64, n)
	for k := range vins {
		vins[k] = make([]float64, width)
		for i := range vins[k] {
			vins[k][i] = src.Float64()
		}
	}
	return vins
}

// TestReadBatchMatchesSequentialReads checks the batched read API
// returns exactly what a loop of single reads returns, with and without
// wire parasitics.
func TestReadBatchMatchesSequentialReads(t *testing.T) {
	cases := []struct {
		name  string
		rwire float64
	}{
		{"circuit-ideal", 0},
		{"circuit-parasitic", 2.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := batchConfig(tc.rwire)
			arr := buildProgrammed(t, cfg, 42)
			vins := randomBatch(16, cfg.Rows, 7)

			// Sequential reference first: ReadBatch leaves the solver
			// workspace warm-started, and parity must hold regardless.
			want := make([][]float64, len(vins))
			for k, v := range vins {
				out, err := arr.Read(v)
				if err != nil {
					t.Fatalf("sequential read %d: %v", k, err)
				}
				want[k] = out
			}
			got, err := arr.ReadBatch(vins)
			if err != nil {
				t.Fatalf("ReadBatch: %v", err)
			}
			if len(got) != len(vins) {
				t.Fatalf("ReadBatch returned %d rows, want %d", len(got), len(vins))
			}
			for k := range got {
				if d := maxAbsDiff(got[k], want[k]); d > equivTol {
					t.Errorf("row %d: batch/sequential diverge by %g (tol %g)", k, d, equivTol)
				}
			}
		})
	}
}

// TestReadIntoMatchesRead checks the allocation-free single-read form
// against the allocating one.
func TestReadIntoMatchesRead(t *testing.T) {
	cfg := batchConfig(0)
	arr := buildProgrammed(t, cfg, 3)
	v := rampInput(cfg.Rows)
	want, err := arr.Read(v)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	dst := make([]float64, cfg.Cols)
	if err := arr.ReadInto(dst, v); err != nil {
		t.Fatalf("ReadInto: %v", err)
	}
	if d := maxAbsDiff(dst, want); d > equivTol {
		t.Errorf("ReadInto diverges from Read by %g", d)
	}
}

// TestSteadyStateReadAllocsZero asserts that after one warm-up read the
// Array.ReadInto hot path performs zero heap allocations in both wire
// regimes. TestTrialBatchReadAllocsZero is the same gate for the SoA
// kernel.
func TestSteadyStateReadAllocsZero(t *testing.T) {
	cases := []struct {
		name  string
		rwire float64
	}{
		{"circuit-ideal", 0},
		{"circuit-parasitic", 2.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := batchConfig(tc.rwire)
			arr := buildProgrammed(t, cfg, 11)
			v := rampInput(cfg.Rows)
			dst := make([]float64, cfg.Cols)
			// Warm the conductance cache and the solver workspace.
			if err := arr.ReadInto(dst, v); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if err := arr.ReadInto(dst, v); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state ReadInto allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// TestAllocBatch checks the pooled batch allocator's shape and backing
// layout (rows must not grow into each other).
func TestAllocBatch(t *testing.T) {
	out := hw.AllocBatch(3, 4)
	if len(out) != 3 {
		t.Fatalf("got %d rows, want 3", len(out))
	}
	for k := range out {
		if len(out[k]) != 4 || cap(out[k]) != 4 {
			t.Fatalf("row %d: len %d cap %d, want 4/4", k, len(out[k]), cap(out[k]))
		}
	}
	out[0] = append(out[0], 99) // must reallocate, not spill into row 1
	if out[1][0] == 99 {
		t.Fatal("appending to row 0 overwrote row 1; rows share growable capacity")
	}
}
