package hw_test

import (
	"fmt"
	"testing"

	"vortex/internal/device"
	"vortex/internal/hw"
	"vortex/internal/mat"
	"vortex/internal/obs"
	"vortex/internal/rng"
	"vortex/internal/xbar"
)

// readBatchRows is the batch size of the ReadBatch cases.
const readBatchRows = 64

// BenchmarkBackend measures the circuit array's read path at the quick
// 49x10 geometry (7x7 inputs) and the paper-scale 784x10 geometry
// (28x28 inputs), both with 10 classes and programmed to a uniform
// 100 kΩ target:
//
//   - read: the allocating Array.Read;
//   - readinto: the steady-state Array.ReadInto into a reused buffer,
//     conductance cache and solver workspace warmed, including a
//     parasitic read (RWire 2.5 Ω) on the warm-started solver and an
//     ideal-wire read with obs recording disabled, which isolates the
//     instrumentation tax;
//   - readcold: the same parasitic read solved cold, on a detached
//     network snapshot per read (Crossbar.Network), the baseline the
//     warm start is measured against;
//   - readbatch64: one Array.ReadBatch of 64 rows, with the per-read
//     cost reported as ns/read.
//
// The crossbar caches its conductance matrix between programming
// passes, so an ideal-wire read is one matrix-vector product.
// TestSteadyStateReadAllocsZero gates the zero-alloc steady state;
// these only time it.
func BenchmarkBackend(b *testing.B) {
	read := func(b *testing.B, xb *xbar.Crossbar, vin []float64) {
		for i := 0; i < b.N; i++ {
			if _, err := xb.Read(vin); err != nil {
				b.Fatal(err)
			}
		}
	}
	readInto := func(b *testing.B, xb *xbar.Crossbar, vin []float64) {
		dst := make([]float64, xb.Cols())
		if err := xb.ReadInto(dst, vin); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := xb.ReadInto(dst, vin); err != nil {
				b.Fatal(err)
			}
		}
	}
	readBatch := func(b *testing.B, xb *xbar.Crossbar, vin []float64) {
		vins := make([][]float64, readBatchRows)
		for k := range vins {
			vins[k] = vin
		}
		for i := 0; i < b.N; i++ {
			if _, err := xb.ReadBatch(vins); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*readBatchRows), "ns/read")
	}
	readCold := func(b *testing.B, xb *xbar.Crossbar, vin []float64) {
		for i := 0; i < b.N; i++ {
			if _, err := xb.Network().Read(vin); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name   string
		rwire  float64
		obsOff bool
		op     func(*testing.B, *xbar.Crossbar, []float64)
	}{
		{"read/circuit", 0, false, read},
		{"readinto/circuit", 0, false, readInto},
		{"readinto/circuit-rwire2.5-warm", 2.5, false, readInto},
		{"readinto/circuit-obsoff", 0, true, readInto},
		{"readcold/circuit-rwire2.5", 2.5, false, readCold},
		{fmt.Sprintf("readbatch%d/circuit", readBatchRows), 0, false, readBatch},
	} {
		for _, rows := range []int{49, 784} {
			b.Run(fmt.Sprintf("%s/%dx10", tc.name, rows), func(b *testing.B) {
				cfg := hw.Config{
					Rows:  rows,
					Cols:  10,
					Model: device.DefaultSwitchModel(),
					Sigma: 0.5,
					RWire: tc.rwire,
				}
				xb, err := xbar.New(cfg, rng.New(42))
				if err != nil {
					b.Fatal(err)
				}
				targets := mat.NewMatrix(cfg.Rows, cfg.Cols)
				targets.Fill(100e3)
				if err := xb.ProgramTargets(targets, hw.ProgramOptions{}); err != nil {
					b.Fatal(err)
				}
				vin := make([]float64, cfg.Rows)
				for i := range vin {
					vin[i] = 0.5 + 0.5*float64(i%2)
				}
				if tc.obsOff {
					defer obs.SetEnabled(obs.SetEnabled(false))
				}
				b.ReportAllocs()
				b.ResetTimer()
				tc.op(b, xb, vin)
			})
		}
	}
}
