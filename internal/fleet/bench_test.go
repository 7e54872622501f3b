package fleet

import (
	"fmt"
	"testing"

	"vortex/internal/hw"
	"vortex/internal/mat"
	"vortex/internal/ncs"
	"vortex/internal/rng"
)

// benchBatchRows is the batch size of BenchmarkFleetReadBatch, about the
// mean batch vortexd's micro-batcher forms under closed-loop load.
const benchBatchRows = 8

// BenchmarkFleetReadBatch measures one routed Fleet.ReadBatch of 8 rows
// against a two-member fleet at the quick 49x10 geometry (7x7 inputs)
// and the paper-scale 784x10 geometry (28x28 inputs): breaker check,
// member lock, the batched NCS scoring on circuit arrays at 6-bit ADCs,
// and the argmax per row. ns/read is the per-row cost.
func BenchmarkFleetReadBatch(b *testing.B) {
	for _, inputs := range []int{49, 784} {
		b.Run(fmt.Sprintf("%dx10", inputs), func(b *testing.B) {
			src := rng.New(3)
			w := mat.NewMatrix(inputs, 10)
			for i := range w.Data {
				w.Data[i] = 2*src.Float64() - 1
			}
			specs := make([]MemberSpec, 2)
			for i := range specs {
				cfg := ncs.DefaultConfig(inputs, 10)
				cfg.Sigma = 0.3
				n, err := ncs.New(cfg, rng.New(uint64(40+i)))
				if err != nil {
					b.Fatal(err)
				}
				if err := n.ProgramWeights(w, hw.ProgramOptions{}); err != nil {
					b.Fatal(err)
				}
				specs[i] = MemberSpec{ID: fmt.Sprintf("m%d", i), Sys: n, Weights: w}
			}
			f, err := New(Config{}, specs)
			if err != nil {
				b.Fatal(err)
			}
			xs := make([][]float64, benchBatchRows)
			for k := range xs {
				xs[k] = make([]float64, inputs)
				for i := range xs[k] {
					xs[k][i] = src.Float64()
				}
			}
			if _, err := f.ReadBatch(xs); err != nil { // warm the weight caches
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.ReadBatch(xs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchBatchRows), "ns/read")
		})
	}
}
