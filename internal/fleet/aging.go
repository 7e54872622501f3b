package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"vortex/internal/device"
	"vortex/internal/fault"
	"vortex/internal/ncs"
	"vortex/internal/obs"
	"vortex/internal/rng"
)

// AgingConfig describes the background physics applied to a live
// fleet: how fast simulated device time advances per step, the
// retention-drift model, and the per-step fault shock (stuck
// conversions, line opens, endurance wear).
type AgingConfig struct {
	// Drift, when non-nil, initializes retention drift on every member
	// (through the arrays' hw.Ager capability).
	Drift *device.DriftModel
	// TimeStep is the simulated seconds each Step advances the arrays'
	// device clocks. Default 1.
	TimeStep float64
	// TimeGrowth multiplies TimeStep after every step, so a short run
	// can cover the paper's decade grid (1 = linear time). Default 1.
	TimeGrowth float64
	// Shock is the fault mix injected on every step: StuckRate and
	// LineOpenRate are per-step probabilities, Endurance enables
	// write-cycle wear.
	Shock fault.Config
	// Seed drives the per-member injector streams; each member ages on
	// its own deterministic stream.
	Seed uint64
}

func (c AgingConfig) withDefaults() AgingConfig {
	if c.TimeStep <= 0 {
		c.TimeStep = 1
	}
	if c.TimeGrowth <= 0 {
		c.TimeGrowth = 1
	}
	return c
}

// Aging is the fleet's background aging loop. Each Step advances every
// member's device clock (drift), injects the configured per-step fault
// shock, and applies endurance wear — all under the member locks, so
// aging interleaves safely with routed reads and controller repairs.
// Drive it manually with Step (tests, the experiment loop) or on a
// wall-clock interval with Run.
type Aging struct {
	f   *Fleet
	cfg AgingConfig

	mu        sync.Mutex
	now       float64 // simulated device time [s]
	step      float64 // current step size [s]
	injectors map[*Member]*fault.Injector
	killed    int64 // cells killed by aging so far

	cSteps, cKilled *obs.Counter
}

// NewAging builds the aging loop and, when a drift model is configured,
// initializes drift on every member.
func NewAging(f *Fleet, cfg AgingConfig) (*Aging, error) {
	if f == nil {
		return nil, errors.New("fleet: nil fleet")
	}
	cfg = cfg.withDefaults()
	reg := obs.Default()
	a := &Aging{
		f:         f,
		cfg:       cfg,
		step:      cfg.TimeStep,
		injectors: make(map[*Member]*fault.Injector),
		cSteps:    reg.Counter("fleet.aging.steps"),
		cKilled:   reg.Counter("fleet.aging.killed"),
	}
	for i, m := range f.Members() {
		in, err := fault.NewInjector(cfg.Shock, rng.New(cfg.Seed+uint64(31*i+7)))
		if err != nil {
			return nil, err
		}
		a.injectors[m] = in
		if cfg.Drift != nil {
			err := m.withLock(func(n *ncs.NCS) error {
				return n.InitDrift(*cfg.Drift, rng.New(cfg.Seed+uint64(97*i+13)))
			})
			if err != nil {
				return nil, fmt.Errorf("fleet: drift on member %s: %w", m.id, err)
			}
		}
	}
	return a, nil
}

// Now returns the current simulated device time.
func (a *Aging) Now() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.now
}

// Killed returns the total number of cells aging has killed so far.
func (a *Aging) Killed() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.killed
}

// Step applies one aging round to every non-retired member: advance the
// device clock, inject the per-step shock, apply wear. Members under
// repair are waited for (the member lock serializes aging with
// repairs), so a step's effects land on consistent array state.
func (a *Aging) Step(ctx context.Context) error {
	a.mu.Lock()
	a.now += a.step
	now := a.now
	a.step *= a.cfg.TimeGrowth
	a.mu.Unlock()
	a.cSteps.Inc()

	for _, m := range a.f.Members() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if m.State() == Retired {
			continue // nobody reads a retired array; skip the simulation cost
		}
		in := a.injectors[m]
		err := m.withLock(func(n *ncs.NCS) error {
			if a.cfg.Drift != nil {
				if err := n.AgeTo(now); err != nil {
					return err
				}
			}
			rep, err := in.Inject(n)
			if err != nil {
				return err
			}
			if a.cfg.Shock.Endurance > 0 {
				wrep, err := in.ApplyWear(n)
				if err != nil {
					return err
				}
				rep.Add(wrep)
			}
			a.account(rep)
			return nil
		})
		if err != nil {
			return fmt.Errorf("fleet: aging member %s: %w", m.id, err)
		}
	}
	return nil
}

// Burst injects a one-off fault event on a single member — the
// kill-and-heal scenario's trigger. The burst draws from its own seeded
// stream, independent of the background aging streams.
func (a *Aging) Burst(memberID string, cfg fault.Config, seed uint64) (fault.Report, error) {
	m := a.f.Member(memberID)
	if m == nil {
		return fault.Report{}, fmt.Errorf("fleet: no member %q", memberID)
	}
	in, err := fault.NewInjector(cfg, rng.New(seed))
	if err != nil {
		return fault.Report{}, err
	}
	var rep fault.Report
	err = m.withLock(func(n *ncs.NCS) error {
		rep, err = in.Inject(n)
		return err
	})
	if err == nil {
		a.account(rep)
	}
	return rep, err
}

// account folds an injection report into the aging totals.
func (a *Aging) account(rep fault.Report) {
	if rep.Total() == 0 {
		return
	}
	a.mu.Lock()
	a.killed += int64(rep.Total())
	a.mu.Unlock()
	a.cKilled.Add(int64(rep.Total()))
}

// Run drives Step on the given interval until ctx is done.
func (a *Aging) Run(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := a.Step(ctx); err != nil && ctx.Err() == nil {
				obs.L().Warn("fleet aging step failed", "err", err)
			}
		}
	}
}
