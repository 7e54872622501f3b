package hw_test

import (
	"sync"
	"testing"

	"vortex/internal/hw"
	"vortex/internal/mat"
)

// These tests pin the concurrency contract documented in DESIGN.md §11:
// one hw.Array is NOT safe for concurrent use (its conductance cache,
// solver workspace and stats are all unguarded), so all access to one
// array must be externally serialized — but distinct arrays share no
// mutable state, so different goroutines may drive different arrays
// freely. Run them under -race (make race does).

// TestConcurrentReadersOnSeparateArrays drives one goroutine per array,
// each hammering reads on its own array. Distinct arrays must share no
// mutable state, so this is race-clean without any locking.
func TestConcurrentReadersOnSeparateArrays(t *testing.T) {
	t.Run("circuit", func(t *testing.T) {
		const arrays = 4
		var wg sync.WaitGroup
		for a := 0; a < arrays; a++ {
			arr := buildProgrammed(t, batchConfig(0), uint64(40+a))
			wg.Add(1)
			go func(arr hw.Array) {
				defer wg.Done()
				v := randomBatch(1, arr.Rows(), 7)[0]
				dst := make([]float64, arr.Cols())
				for i := 0; i < 50; i++ {
					if err := arr.ReadInto(dst, v); err != nil {
						t.Error(err)
						return
					}
					arr.Conductances() // cache reads race-free too
				}
			}(arr)
		}
		wg.Wait()
	})
}

// TestSerializedReadReprogramOneArray interleaves reads, reprograms and
// stats snapshots on ONE array from several goroutines, all serialized
// behind one mutex — the usage pattern internal/fleet's Member lock
// enforces. Under -race this passes only because of the external lock;
// removing it makes the conductance cache and stats counters race.
func TestSerializedReadReprogramOneArray(t *testing.T) {
	arr := buildProgrammed(t, batchConfig(0), 99)
	targets := mat.NewMatrix(arr.Rows(), arr.Cols())
	targets.Fill(200e3)
	var mu sync.Mutex
	var wg sync.WaitGroup
	v := randomBatch(1, arr.Rows(), 3)[0]
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]float64, arr.Cols())
			for i := 0; i < 30; i++ {
				mu.Lock()
				var err error
				switch {
				case g%3 == 0 && i%10 == 9:
					err = arr.ProgramTargets(targets, hw.ProgramOptions{})
				case g%3 == 1 && i%10 == 9:
					arr.Stats()
					arr.ResetStats()
				default:
					err = arr.ReadInto(dst, v)
				}
				mu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPerArrayMetricsNamespacing checks the per-array metric helper:
// two arrays of the same kind get disjoint series, the prefix is the
// documented hw.<kind>.<id>. shape, and repeated lookups share the
// cached instance (MetricsForArray is called on hot paths).
func TestPerArrayMetricsNamespacing(t *testing.T) {
	if got, want := hw.ArrayPrefix(hw.CircuitKind, "a0"), "hw.circuit.a0."; got != want {
		t.Fatalf("ArrayPrefix = %q, want %q", got, want)
	}
	m0 := hw.MetricsForArray(hw.CircuitKind, "a0")
	m1 := hw.MetricsForArray(hw.CircuitKind, "a1")
	if m0 == m1 {
		t.Fatal("different arrays share one metrics instance")
	}
	if again := hw.MetricsForArray(hw.CircuitKind, "a0"); again != m0 {
		t.Fatal("repeated lookup did not hit the cache")
	}
	if agg := hw.MetricsFor(hw.CircuitKind); agg == m0 {
		t.Fatal("per-array metrics aliased to the per-kind aggregate")
	}
}
