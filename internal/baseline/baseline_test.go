package baseline

import (
	"math"
	"testing"

	"github.com/smartdpss/smartdpss/internal/market"
	"github.com/smartdpss/smartdpss/internal/pricing"
	"github.com/smartdpss/smartdpss/internal/sim"
	"github.com/smartdpss/smartdpss/internal/solar"
	"github.com/smartdpss/smartdpss/internal/trace"
	"github.com/smartdpss/smartdpss/internal/workload"
)

func testTraces(t testing.TB, days int) *trace.Set {
	t.Helper()
	wc := workload.Defaults()
	wc.Days = days
	ds, dt, err := workload.Generate(wc)
	if err != nil {
		t.Fatal(err)
	}
	sc := solar.Defaults()
	sc.Days = days
	sun, err := solar.Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	pc := pricing.Defaults()
	pc.Days = days
	lt, rt, err := pricing.Generate(pc)
	if err != nil {
		t.Fatal(err)
	}
	set := &trace.Set{DemandDS: ds, DemandDT: dt, Renewable: sun, PriceLT: lt, PriceRT: rt}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	return set
}

func simConfig(cfg Config) sim.Config {
	return sim.Config{
		Battery:          cfg.Battery,
		Market:           market.Params{PgridMWh: cfg.PgridMWh, PmaxUSD: cfg.PmaxUSD},
		WasteCostUSD:     cfg.WasteCostUSD,
		EmergencyCostUSD: cfg.EmergencyCostUSD,
		SdtMaxMWh:        cfg.SdtMaxMWh,
		SmaxMWh:          cfg.SmaxMWh,
		KeepSeries:       true,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mut := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	bad := []Config{
		mut(func(c *Config) { c.T = 0 }),
		mut(func(c *Config) { c.PgridMWh = 0 }),
		mut(func(c *Config) { c.PmaxUSD = 0 }),
		mut(func(c *Config) { c.SmaxMWh = 0 }),
		mut(func(c *Config) { c.SdtMaxMWh = 0 }),
		mut(func(c *Config) { c.WasteCostUSD = -1 }),
		mut(func(c *Config) { c.EmergencyCostUSD = 1 }),
		mut(func(c *Config) { c.Battery.DischargeEff = 0.5 }),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestImpatientServesImmediately(t *testing.T) {
	cfg := DefaultConfig()
	imp, err := NewImpatient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	set := testTraces(t, 7)
	rep, err := sim.Run(simConfig(cfg), set, imp)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UnservedMWh > 1e-6 {
		t.Errorf("unserved = %g, want 0", rep.UnservedMWh)
	}
	// Impatient's whole point: minimal queueing delay. Arrivals can first
	// be served one slot later (Eq. 2 serves before arrivals), so the
	// structural floor is 1 slot; allow a small capacity-deferral margin.
	if rep.MeanDelaySlots > 1.5 {
		t.Errorf("Impatient mean delay = %g slots, want ~1", rep.MeanDelaySlots)
	}
	// The backlog never accumulates beyond one slot of arrivals
	// (service capacity permitting).
	if rep.BacklogMaxMWh > 2*cfg.SdtMaxMWh+1e-9 {
		t.Errorf("Impatient max backlog = %g", rep.BacklogMaxMWh)
	}
}

func TestImpatientPlanFineDeficitOrder(t *testing.T) {
	cfg := DefaultConfig()
	imp, err := NewImpatient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs := sim.FineObs{
		DemandDS: 1.2, Backlog: 0.4, SdtMax: 1.0,
		LongTermDue: 0.5, Renewable: 0.1,
		RTHeadroom: 1.5, MaxCharge: 0.5, MaxDischarge: 0.4,
	}
	dec := imp.PlanFine(obs)
	// Need 1.2 + 0.4 = 1.6; base 0.6; deficit 1.0 → all from the grid.
	if math.Abs(dec.ServeDT-0.4) > 1e-12 {
		t.Errorf("ServeDT = %g, want 0.4", dec.ServeDT)
	}
	if math.Abs(dec.Grt-1.0) > 1e-12 {
		t.Errorf("Grt = %g, want 1.0", dec.Grt)
	}
	if dec.Discharge != 0 {
		t.Errorf("Discharge = %g, want 0 (grid headroom sufficient)", dec.Discharge)
	}
}

func TestImpatientFallsBackToBattery(t *testing.T) {
	cfg := DefaultConfig()
	imp, err := NewImpatient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs := sim.FineObs{
		DemandDS: 1.2, LongTermDue: 0.2, Renewable: 0,
		RTHeadroom: 0.5, MaxDischarge: 0.4, SdtMax: 1.0,
	}
	dec := imp.PlanFine(obs)
	// Deficit 1.0; grid gives 0.5; battery covers 0.4; 0.1 shed by engine.
	if math.Abs(dec.Grt-0.5) > 1e-12 || math.Abs(dec.Discharge-0.4) > 1e-12 {
		t.Errorf("dec = %+v, want grt=0.5 discharge=0.4", dec)
	}
}

func TestImpatientAbsorbsSurplus(t *testing.T) {
	cfg := DefaultConfig()
	imp, err := NewImpatient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs := sim.FineObs{
		DemandDS: 0.3, LongTermDue: 0.5, Renewable: 0.6,
		MaxCharge: 0.5, SdtMax: 1.0,
	}
	dec := imp.PlanFine(obs)
	if math.Abs(dec.Charge-0.5) > 1e-12 {
		t.Errorf("Charge = %g, want 0.5 (surplus 0.8 capped at 0.5)", dec.Charge)
	}
}

func TestOfflineOptimalBeatsImpatient(t *testing.T) {
	cfg := DefaultConfig()
	set := testTraces(t, 7)

	imp, err := NewImpatient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	impRep, err := sim.Run(simConfig(cfg), set, imp)
	if err != nil {
		t.Fatal(err)
	}

	off, err := NewOfflineOptimal(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	offRep, err := sim.Run(simConfig(cfg), set, off)
	if err != nil {
		t.Fatal(err)
	}

	if offRep.TotalCostUSD >= impRep.TotalCostUSD {
		t.Errorf("offline $%.2f not below Impatient $%.2f",
			offRep.TotalCostUSD, impRep.TotalCostUSD)
	}
	if offRep.UnservedMWh > 1e-6 {
		t.Errorf("offline unserved = %g, want 0", offRep.UnservedMWh)
	}
}

func TestOfflineOptimalLemma1RealTimeNearZero(t *testing.T) {
	cfg := DefaultConfig()
	set := testTraces(t, 7)
	off, err := NewOfflineOptimal(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(simConfig(cfg), set, off)
	if err != nil {
		t.Fatal(err)
	}
	// Lemma 1: with full knowledge the real-time market is unnecessary.
	// In this implementation the long-term energy is delivered flat
	// (gbef/T per slot, Eq. 1), so tracking intra-day peaks with gbef
	// alone would flood the troughs; the optimum keeps a modest real-time
	// component for the peaks. Assert long-term clearly dominates.
	if rep.RTEnergyMWh > 0.35*rep.LTEnergyMWh {
		t.Errorf("offline real-time energy %g vs long-term %g — Lemma 1 violated",
			rep.RTEnergyMWh, rep.LTEnergyMWh)
	}
}

func TestOfflineHorizonAtLeastAsGoodAsPerInterval(t *testing.T) {
	cfg := DefaultConfig()
	cfg.T = 12 // keep the horizon LP small
	set := testTraces(t, 3)

	perInterval, err := NewOfflineOptimal(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	perRep, err := sim.Run(simConfig(cfg), set, perInterval)
	if err != nil {
		t.Fatal(err)
	}

	horizon, err := NewOfflineHorizon(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	horRep, err := sim.Run(simConfig(cfg), set, horizon)
	if err != nil {
		t.Fatal(err)
	}

	// The horizon LP optimizes a superset of the per-interval plans;
	// allow a small tolerance for the executed (as opposed to planned)
	// costs to differ through clamping.
	if horRep.TotalCostUSD > perRep.TotalCostUSD*1.02+1 {
		t.Errorf("horizon $%.2f worse than per-interval $%.2f",
			horRep.TotalCostUSD, perRep.TotalCostUSD)
	}
}

func TestOfflineIntervalPlanIsBalanced(t *testing.T) {
	cfg := DefaultConfig()
	set := testTraces(t, 2)
	b0 := cfg.Battery.InitialMWh
	var st lpState
	gbef, plan, err := st.solveInterval(cfg, set, 0, cfg.T, b0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gbef < 0 || gbef > float64(cfg.T)*cfg.PgridMWh {
		t.Fatalf("gbef = %g outside [0, %g]", gbef, float64(cfg.T)*cfg.PgridMWh)
	}
	level := b0
	served := 0.0
	arrived := 0.0
	for i, dec := range plan {
		if dec.Grt < -1e-9 || dec.ServeDT < -1e-9 || dec.Charge < -1e-9 || dec.Discharge < -1e-9 {
			t.Fatalf("slot %d: negative component %+v", i, dec)
		}
		if dec.Charge > 1e-9 && dec.Discharge > 1e-9 {
			t.Fatalf("slot %d: charge and discharge together", i)
		}
		level += dec.Charge*cfg.Battery.ChargeEff - dec.Discharge*cfg.Battery.DischargeEff
		if level < cfg.Battery.MinLevelMWh-1e-6 || level > cfg.Battery.CapacityMWh+1e-6 {
			t.Fatalf("slot %d: battery level %g out of bounds", i, level)
		}
		served += dec.ServeDT
		arrived += set.DemandDT.At(i)
		if served > arrived+1e-6 {
			t.Fatalf("slot %d: served %g ahead of arrivals %g", i, served, arrived)
		}
	}
	if math.Abs(served-arrived) > 1e-6 {
		t.Fatalf("interval end: served %g != arrived %g", served, arrived)
	}
}

func TestOfflineOptimalNoBattery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Battery.CapacityMWh = 0
	cfg.Battery.MinLevelMWh = 0
	cfg.Battery.InitialMWh = 0
	set := testTraces(t, 3)
	off, err := NewOfflineOptimal(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(simConfig(cfg), set, off)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BatteryOps != 0 {
		t.Errorf("battery ops = %d with zero-capacity UPS", rep.BatteryOps)
	}
	if rep.UnservedMWh > 1e-6 {
		t.Errorf("unserved = %g without battery, want 0 (grid covers)", rep.UnservedMWh)
	}
}
