package fleet

import (
	"context"
	"testing"

	"vortex/internal/device"
	"vortex/internal/fault"
	"vortex/internal/hw"
	"vortex/internal/ncs"
	"vortex/internal/rng"
)

func tickUntil(t *testing.T, c *Controller, max int, done func() bool) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < max; i++ {
		c.Tick(ctx)
		c.Quiesce()
		if done() {
			return
		}
	}
	t.Fatalf("condition not reached within %d controller ticks", max)
}

func killCells(n *ncs.NCS, cells ...[2]int) {
	for _, c := range cells {
		n.Pos.(hw.DefectAccessor).SetDefect(c[0], c[1], device.DefectStuckLRS)
	}
	n.Invalidate()
}

func TestControllerRepairsFaultedMember(t *testing.T) {
	f, _, set := testFleet(t, 2, Config{})
	m := f.Member("a0")
	// Three stuck cells on mapped rows: enough to pull health under the
	// 0.98 trip threshold (3 of 120 cells) and force a repair round.
	killCells(m.sys, [2]int{0, 1}, [2]int{2, 0}, [2]int{5, 2})

	base, err := f.Member("a1").sys.Evaluate(set)
	if err != nil {
		t.Fatal(err)
	}
	c := NewController(f, ControllerConfig{
		Repair:        fault.Policy{Verify: verifyOpts},
		ScanEvery:     1,
		Probe:         set,
		ProbeBaseline: base,
	})
	tickUntil(t, c, 6, func() bool {
		return c.Stats().Repairs >= 1 && m.State() == Serving
	})
	if h := m.Health(); h >= 1 || h < 0.9 {
		t.Fatalf("post-repair health %v, want in [0.9, 1) with 3 dead cells", h)
	}
	st := c.Stats()
	if st.Errors != 0 || st.Retired != 0 || st.Demoted != 0 {
		t.Fatalf("controller stats %+v", st)
	}
	// The repaired member must still classify: redundancy dodged all
	// three casualties.
	acc, err := m.sys.Evaluate(set)
	if err != nil {
		t.Fatal(err)
	}
	if acc < base-0.05 {
		t.Fatalf("repaired member accuracy %v, baseline %v", acc, base)
	}
}

func TestControllerLeavesHealthyFleetAlone(t *testing.T) {
	f, _, _ := testFleet(t, 2, Config{})
	c := NewController(f, ControllerConfig{Repair: fault.Policy{Verify: verifyOpts}, ScanEvery: 1})
	for i := 0; i < 4; i++ {
		c.Tick(context.Background())
		c.Quiesce()
	}
	st := c.Stats()
	if st.Scans == 0 {
		t.Fatal("no routine scans ran")
	}
	if st.Repairs != 0 || st.Demoted != 0 || st.Retired != 0 {
		t.Fatalf("healthy fleet was repaired: %+v", st)
	}
	for _, m := range f.Members() {
		if m.State() != Serving {
			t.Fatalf("member %s left rotation: %v", m.ID(), m.State())
		}
		if m.Health() < 0.99 {
			t.Fatalf("member %s health %v after scan of a pristine array", m.ID(), m.Health())
		}
	}
}

func TestControllerBoundsConcurrentRepairsAndRejoinsHalfOpen(t *testing.T) {
	f, _, _ := testFleet(t, 2, Config{})
	// Force both breakers open; with a repair budget of one, each tick
	// may bench only one member.
	f.Member("a0").Breaker().Trip()
	f.Member("a1").Breaker().Trip()
	c := NewController(f, ControllerConfig{
		Repair:               fault.Policy{Verify: verifyOpts},
		ScanEvery:            1000, // routine scans out of the picture: only forced ones
		MaxConcurrentRepairs: 1,
	})
	c.Tick(context.Background())
	c.Quiesce()
	if got := c.Stats().Scans; got != 1 {
		t.Fatalf("first tick ran %d scans, want 1 (budget)", got)
	}
	c.Tick(context.Background())
	c.Quiesce()
	if got := c.Stats().Scans; got != 2 {
		t.Fatalf("second tick total %d scans, want 2", got)
	}
	if got := c.Stats().Rejoins; got != 2 {
		t.Fatalf("rejoins = %d, want 2 (both members handed back)", got)
	}
	for _, m := range f.Members() {
		if m.State() != Serving {
			t.Fatalf("member %s state %v, want serving", m.ID(), m.State())
		}
		if m.Breaker().State() != BreakerHalfOpen {
			t.Fatalf("member %s rejoined with breaker %v, want half-open probation",
				m.ID(), m.Breaker().State())
		}
	}
}

// massacre kills every cell on the first `rows` physical rows of both
// arrays — damage far past the repair give-up threshold.
func massacre(n *ncs.NCS, rows int) {
	for _, x := range []hw.Array{n.Pos, n.Neg} {
		da := x.(hw.DefectAccessor)
		for i := 0; i < rows; i++ {
			for j := 0; j < x.Cols(); j++ {
				da.SetDefect(i, j, device.DefectStuckHRS)
			}
		}
	}
	n.Invalidate()
}

func TestControllerRetiresHopelessMember(t *testing.T) {
	f, _, set := testFleet(t, 2, Config{})
	m := f.Member("a1")
	massacre(m.sys, 13) // 78 of 120 cells dead: health 0.35 < RetireBelow
	m.Breaker().Trip()  // forced scan path, so a0 is never benched

	c := NewController(f, ControllerConfig{Repair: fault.Policy{Verify: verifyOpts}, ScanEvery: 1000})
	tickUntil(t, c, 4, func() bool { return m.State() == Retired })
	if got := c.Stats().Retired; got != 1 {
		t.Fatalf("retired counter %d, want 1", got)
	}
	// The survivor carries the fleet, un-degraded.
	res, err := f.Classify(set.Samples[0].Pixels)
	if err != nil {
		t.Fatal(err)
	}
	if res.Member != "a0" || res.Degraded {
		t.Fatalf("result %+v, want healthy read from a0", res)
	}
}

func TestControllerNeverRetiresLastMember(t *testing.T) {
	f, _, set := testFleet(t, 1, Config{})
	m := f.Member("a0")
	massacre(m.sys, 13)
	m.Breaker().Trip()

	c := NewController(f, ControllerConfig{Repair: fault.Policy{Verify: verifyOpts}, ScanEvery: 1000})
	tickUntil(t, c, 4, func() bool { return m.State() == Degraded })
	if got := c.Stats().Retired; got != 0 {
		t.Fatal("controller retired the last member")
	}
	if got := c.Stats().Demoted; got != 1 {
		t.Fatalf("demoted counter %d, want 1", got)
	}
	// Graceful degradation: the fleet still answers, flagged.
	res, err := f.Classify(set.Samples[0].Pixels)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("read from the sole degraded member not flagged")
	}
}

func TestAgingStepInjectsDeterministically(t *testing.T) {
	f, _, _ := testFleet(t, 2, Config{})
	a, err := NewAging(f, AgingConfig{
		TimeStep:   2,
		TimeGrowth: 2,
		Shock:      fault.Config{StuckRate: 0.05},
		Seed:       9,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := a.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Now(); got != 2+4+8 {
		t.Fatalf("device time %v after growth-2 steps, want 14", got)
	}
	if a.Killed() == 0 {
		t.Fatal("three five-percent stuck shocks killed nothing")
	}
	// Retired members are left alone.
	f.Member("a1").setState(Retired)
	before := a.Killed()
	for i := 0; i < 2; i++ {
		if err := a.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if a.Killed() == before {
		t.Fatal("aging stopped entirely after one member retired")
	}
}

func TestAgingBurstTargetsOneMember(t *testing.T) {
	f, _, _ := testFleet(t, 2, Config{})
	rep, err := a2Burst(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total() == 0 {
		t.Fatal("burst killed nothing at 20 percent stuck rate")
	}
	if _, err := mustAging(f).Burst("nope", fault.Config{StuckRate: 0.1}, 1); err == nil {
		t.Fatal("burst on unknown member accepted")
	}
}

func mustAging(f *Fleet) *Aging {
	a, err := NewAging(f, AgingConfig{})
	if err != nil {
		panic(err)
	}
	return a
}

func a2Burst(f *Fleet) (fault.Report, error) {
	a, err := NewAging(f, AgingConfig{Seed: 5})
	if err != nil {
		return fault.Report{}, err
	}
	return a.Burst("a0", fault.Config{StuckRate: 0.2}, 42)
}

// TestAgingDriftOnCircuitFleet exercises the full drift path on a small
// circuit-backend fleet: device clocks advance and reads keep working.
func TestAgingDriftOnCircuitFleet(t *testing.T) {
	set := testSet(t, 6, 21)
	w := testWeights(t, set)
	cfg := ncs.DefaultConfig(tFeatures, tClasses)
	cfg.ADCBits = 0 // ideal sensing
	cfg.Redundancy = 2
	specs := make([]MemberSpec, 2)
	for i := range specs {
		n, err := ncs.New(cfg, rng.New(uint64(300+i)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.ProgramWeightsVerify(w, verifyOpts); err != nil {
			t.Fatal(err)
		}
		specs[i] = MemberSpec{ID: []string{"c0", "c1"}[i], Sys: n, Weights: w}
	}
	f, err := New(Config{}, specs)
	if err != nil {
		t.Fatal(err)
	}
	drift := device.DefaultDriftModel()
	a, err := NewAging(f, AgingConfig{Drift: &drift, TimeStep: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Classify(set.Samples[0].Pixels); err != nil {
		t.Fatal(err)
	}
}
