package experiment

import (
	"context"
	"fmt"
	"math"

	"vortex/internal/adc"
	"vortex/internal/device"
	"vortex/internal/hw"
	"vortex/internal/mat"
	"vortex/internal/rng"
	"vortex/internal/stats"
	"vortex/internal/xbar"
)

// Fig2Result holds the Monte-Carlo output-discrepancy series of paper
// Fig. 2: one 100-memristor column trained to emit 1 mA at 1 V inputs,
// with the relative output discrepancy of OLD and CLD versus the device
// variation sigma.
type Fig2Result struct {
	Sigmas  []float64
	OLDMean []float64 // mean |I - 1mA| / 1mA after open-loop programming
	OLDStd  []float64
	CLDMean []float64 // same after close-loop training
	CLDStd  []float64
	Runs    int
}

func (r *Fig2Result) cells() ([]string, [][]string) {
	rows := make([][]string, len(r.Sigmas))
	for i := range r.Sigmas {
		rows[i] = []string{
			f3(r.Sigmas[i]),
			pct(r.OLDMean[i]), pct(r.OLDStd[i]),
			pct(r.CLDMean[i]), pct(r.CLDStd[i]),
		}
	}
	return []string{"sigma", "OLD err%", "OLD sd%", "CLD err%", "CLD sd%"}, rows
}

// Table renders the result as an aligned text table.
func (r *Fig2Result) Table() string { return textTable(r.cells()) }

// CSV renders the result as comma-separated values for plotting.
func (r *Fig2Result) CSV() string { return csvTable(r.cells()) }

// Annotation implements Result.
func (r *Fig2Result) Annotation() string {
	return fmt.Sprintf("(%d Monte-Carlo runs per point)\n", r.Runs)
}

func init() {
	register(Runner{
		Name:        "fig2",
		Description: "Fig. 2 — CLD vs OLD output discrepancy on a 100-memristor column vs sigma",
		Run: func(ctx context.Context, s Scale, seed uint64) (Result, error) {
			return Fig2(ctx, s, seed)
		},
	})
}

const (
	fig2Cells   = 100
	fig2Target  = 1e-3  // 1 mA
	fig2Vin     = 1.0   // 1 V on every row
	fig2RTarget = 100e3 // per-cell resistance hitting the 1 mA goal
)

// Fig2 runs the column-training Monte-Carlo of paper Sec. 3.1 / Fig. 2.
// The per-sigma runs execute concurrently; each run seeds its own rng
// from (seed, sigma index, run index), so the result is deterministic.
func Fig2(ctx context.Context, scale Scale, seed uint64) (*Fig2Result, error) {
	runs := map[Scale]int{Quick: 40, Default: 250, Full: 1000}[scale]
	sigmas := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	res := &Fig2Result{Sigmas: sigmas, Runs: runs}

	conv, err := adc.NewConverter(6, 0, 2*fig2Target)
	if err != nil {
		return nil, err
	}
	vin := mat.Constant(fig2Cells, fig2Vin)

	// Exported fields so completed runs round-trip through the JSON
	// checkpoint store.
	type runErrs struct {
		Old float64 `json:"old"`
		Cld float64 `json:"cld"`
	}
	for si, sigma := range sigmas {
		sigma := sigma
		si := si
		if partialBreak(ctx) {
			break // render the sigmas already swept; the rest pad to NA
		}
		results, completed, err := parallelTrials(ctx, runs, func(t Trial) (runErrs, error) {
			run := t.Index
			src := rng.New(seed ^ uint64(si)<<40 ^ uint64(run)*0x9e3779b97f4a7c15)
			// The sense chain holds no state, but give each worker its
			// own to keep the data-race detector quiet about the shared
			// converter pointer.
			chain := adc.NewSenseChain(conv, 1, nil)
			cfg := hw.Config{
				Rows:  fig2Cells,
				Cols:  1,
				Model: device.DefaultSwitchModel(),
				Sigma: sigma,
			}
			xb, err := xbar.New(cfg, src)
			if err != nil {
				return runErrs{}, err
			}
			// OLD: one open-loop pass to the pre-calculated target.
			targets := mat.NewMatrix(fig2Cells, 1)
			targets.Fill(fig2RTarget)
			if err := xb.ProgramTargets(targets, hw.ProgramOptions{}); err != nil {
				return runErrs{}, err
			}
			i, err := readColumn(xb, vin)
			if err != nil {
				return runErrs{}, err
			}
			oldErr := math.Abs(i-fig2Target) / fig2Target

			// CLD: reuse the same fabricated column, reset, and train with
			// output feedback through the 6-bit ADC.
			xb.ResetAll()
			if err := cldColumn(xb, cfg.Model, chain, vin); err != nil {
				return runErrs{}, err
			}
			if i, err = readColumn(xb, vin); err != nil {
				return runErrs{}, err
			}
			return runErrs{Old: oldErr, Cld: math.Abs(i-fig2Target) / fig2Target}, nil
		})
		if err != nil {
			return nil, err
		}
		// Statistics over the runs that completed; a partial run with no
		// completed trials at this sigma renders NA.
		oldErr := make([]float64, 0, runs)
		cldErr := make([]float64, 0, runs)
		for r, v := range results {
			if completed[r] {
				oldErr = append(oldErr, v.Old)
				cldErr = append(cldErr, v.Cld)
			}
		}
		if len(oldErr) == 0 {
			nan := math.NaN()
			res.OLDMean = append(res.OLDMean, nan)
			res.OLDStd = append(res.OLDStd, nan)
			res.CLDMean = append(res.CLDMean, nan)
			res.CLDStd = append(res.CLDStd, nan)
			continue
		}
		om, os := stats.MeanStd(oldErr)
		cm, cs := stats.MeanStd(cldErr)
		res.OLDMean = append(res.OLDMean, om)
		res.OLDStd = append(res.OLDStd, os)
		res.CLDMean = append(res.CLDMean, cm)
		res.CLDStd = append(res.CLDStd, cs)
	}
	res.OLDMean = padNaN(res.OLDMean, len(sigmas))
	res.OLDStd = padNaN(res.OLDStd, len(sigmas))
	res.CLDMean = padNaN(res.CLDMean, len(sigmas))
	res.CLDStd = padNaN(res.CLDStd, len(sigmas))
	return res, nil
}

// readColumn reads the single column current of a one-column array.
func readColumn(xb hw.Array, vin []float64) (float64, error) {
	out, err := xb.Read(vin)
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// cldColumn trains one column close-loop: sense the summed current
// through the ADC, spread the conductance correction uniformly over the
// cells, program with pre-calculated pulses, iterate.
func cldColumn(xb hw.Array, model device.SwitchModel, chain *adc.SenseChain, vin []float64) error {
	cells := xb.Rows()
	// Controller belief of each cell's conductance (dead reckoning from
	// the known HRS reset state).
	belief := mat.Constant(cells, 1/model.Roff)
	lsb := fig2Target / 32    // effective resolution floor of the 6-bit chain
	out := make([]float64, 1) // reused across the sense-program iterations
	for iter := 0; iter < 80; iter++ {
		if err := xb.ReadInto(out, vin); err != nil {
			return err
		}
		sensed := chain.Sense(out[0])
		e := fig2Target - sensed
		if math.Abs(e) < lsb/2 {
			return nil
		}
		dg := e / (fig2Vin * float64(cells))
		pulses := make([]hw.CellPulse, 0, cells)
		for c := 0; c < cells; c++ {
			cur := belief[c]
			next := cur + dg
			if next < 1/model.Roff {
				next = 1 / model.Roff
			} else if next > 1/model.Ron {
				next = 1 / model.Ron
			}
			if next == cur {
				continue
			}
			p := model.PulseForTarget(-math.Log(cur), -math.Log(next))
			belief[c] = next
			if p.Width > 0 {
				pulses = append(pulses, hw.CellPulse{Row: c, Col: 0, Pulse: p})
			}
		}
		if len(pulses) == 0 {
			return nil
		}
		if err := xb.ProgramBatch(pulses, hw.ProgramOptions{}); err != nil {
			return err
		}
	}
	return nil
}
