package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/smartdpss/smartdpss/internal/battery"
	"github.com/smartdpss/smartdpss/internal/generator"
	"github.com/smartdpss/smartdpss/internal/trace"
)

// scriptController returns fixed decisions and records its observations.
type scriptController struct {
	name      string
	t         int
	gbef      float64
	decide    func(FineObs) Decision
	outcomes  []Outcome
	coarseObs []CoarseObs
}

func (s *scriptController) Name() string { return s.name }
func (s *scriptController) CoarseSlots() int {
	if s.t == 0 {
		return 4
	}
	return s.t
}
func (s *scriptController) PlanCoarse(obs CoarseObs) float64 {
	s.coarseObs = append(s.coarseObs, obs)
	return s.gbef
}
func (s *scriptController) PlanFine(obs *FineObs) Decision {
	if s.decide == nil {
		return Decision{}
	}
	return s.decide(*obs)
}
func (s *scriptController) RecordOutcome(out Outcome) { s.outcomes = append(s.outcomes, out) }

func flatSet(n int, dds, ddt, ren, plt, prt float64) *trace.Set {
	mk := func(name string, v float64) *trace.Series {
		s := trace.New(name, "", n)
		for i := range s.Values {
			s.Values[i] = v
		}
		return s
	}
	return &trace.Set{
		DemandDS:  mk("demand_ds", dds),
		DemandDT:  mk("demand_dt", ddt),
		Renewable: mk("renewable", ren),
		PriceLT:   mk("price_lt", plt),
		PriceRT:   mk("price_rt", prt),
	}
}

func testConfig() Config { return Config{Plant: DefaultPlant()} }

// TestPlantValidate covers every rule of the one plant validation that
// sim.Config, core.Params and baseline.Config share, and the checks
// Config adds on top.
func TestPlantValidate(t *testing.T) {
	if err := DefaultPlant().Validate(); err != nil {
		t.Fatalf("DefaultPlant invalid: %v", err)
	}
	mut := func(f func(*Plant)) Plant {
		p := DefaultPlant()
		f(&p)
		return p
	}
	bad := map[string]Plant{
		"PgridMWh zero":            mut(func(p *Plant) { p.PgridMWh = 0 }),
		"PmaxUSD zero":             mut(func(p *Plant) { p.PmaxUSD = 0 }),
		"SmaxMWh zero":             mut(func(p *Plant) { p.SmaxMWh = 0 }),
		"SdtMaxMWh zero":           mut(func(p *Plant) { p.SdtMaxMWh = 0 }),
		"WasteCostUSD negative":    mut(func(p *Plant) { p.WasteCostUSD = -1 }),
		"EmergencyCostUSD at Pmax": mut(func(p *Plant) { p.EmergencyCostUSD = p.PmaxUSD }),
		"battery invalid":          mut(func(p *Plant) { p.Battery.ChargeEff = 2 }),
		"battery overflowed":       mut(func(p *Plant) { p.Battery = battery.Sized(1e308, 15, 1) }),
		"fleet unit invalid": mut(func(p *Plant) {
			p.Fleet = []generator.Params{{CapacityMWh: 1}, {CapacityMWh: -1}}
		}),
	}
	fields := map[string]func(*Plant) *float64{
		"PgridMWh":         func(p *Plant) *float64 { return &p.PgridMWh },
		"PmaxUSD":          func(p *Plant) *float64 { return &p.PmaxUSD },
		"SmaxMWh":          func(p *Plant) *float64 { return &p.SmaxMWh },
		"SdtMaxMWh":        func(p *Plant) *float64 { return &p.SdtMaxMWh },
		"WasteCostUSD":     func(p *Plant) *float64 { return &p.WasteCostUSD },
		"EmergencyCostUSD": func(p *Plant) *float64 { return &p.EmergencyCostUSD },
	}
	for name, field := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			bad[fmt.Sprintf("%s %g", name, v)] = mut(func(p *Plant) { *field(p) = v })
		}
	}
	for name, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: invalid plant accepted", name)
		}
		if err := (Config{Plant: p}).Validate(); err == nil {
			t.Errorf("%s: Config over an invalid plant accepted", name)
		}
	}
	for _, peak := range []float64{-1, math.NaN(), math.Inf(1)} {
		if err := (Config{Plant: DefaultPlant(), PeakChargeUSDPerMW: peak}).Validate(); err == nil {
			t.Errorf("PeakChargeUSDPerMW %g accepted", peak)
		}
	}
}

func TestRunValidation(t *testing.T) {
	good := testConfig()
	set := flatSet(8, 1, 0, 0, 40, 50)
	ctrl := &scriptController{name: "script"}

	t.Run("bad config", func(t *testing.T) {
		bad := good
		bad.SdtMaxMWh = 0
		if _, err := Run(bad, set, ctrl); err == nil {
			t.Error("invalid config accepted")
		}
	})
	t.Run("bad traces", func(t *testing.T) {
		badSet := flatSet(8, 1, 0, 0, 40, 50)
		badSet.PriceRT = nil
		if _, err := Run(good, badSet, ctrl); err == nil {
			t.Error("invalid traces accepted")
		}
	})
	t.Run("bad controller T", func(t *testing.T) {
		zeroT := &scriptController{name: "zero", t: -1}
		if _, err := Run(good, set, zeroT); err == nil {
			t.Error("non-positive T accepted")
		}
	})
}

func TestRunBalancedGridOnly(t *testing.T) {
	// Flat demand 1.0, gbef covers it exactly: no waste, no unserved.
	set := flatSet(8, 1.0, 0, 0, 40, 50)
	ctrl := &scriptController{name: "script", gbef: 4.0} // 4 slots × 1.0
	rep, err := Run(testConfig(), set, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Slots != 8 {
		t.Fatalf("slots = %d", rep.Slots)
	}
	if math.Abs(rep.LTEnergyMWh-8.0) > 1e-9 {
		t.Errorf("LT energy = %g, want 8", rep.LTEnergyMWh)
	}
	if math.Abs(rep.TotalCostUSD-8*40) > 1e-9 {
		t.Errorf("cost = %g, want %g", rep.TotalCostUSD, 8.0*40)
	}
	if rep.WasteMWh > 1e-9 || rep.UnservedMWh > 1e-9 {
		t.Errorf("waste=%g unserved=%g, want 0", rep.WasteMWh, rep.UnservedMWh)
	}
	if rep.Availability != 1 {
		t.Errorf("availability = %g", rep.Availability)
	}
	if len(ctrl.coarseObs) != 2 {
		t.Errorf("coarse boundaries = %d, want 2", len(ctrl.coarseObs))
	}
}

func TestRunSurplusBecomesWaste(t *testing.T) {
	set := flatSet(4, 0.5, 0, 0, 40, 50)
	ctrl := &scriptController{name: "script", gbef: 4.0} // 1.0/slot vs 0.5 demand
	rep, err := Run(testConfig(), set, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.WasteMWh-4*0.5) > 1e-9 {
		t.Errorf("waste = %g, want 2", rep.WasteMWh)
	}
	if math.Abs(rep.WasteCostUSD-2.0) > 1e-9 {
		t.Errorf("waste cost = %g, want 2", rep.WasteCostUSD)
	}
}

func TestRunRescueChain(t *testing.T) {
	// Demand 3.0 with zero planned purchases: the rescue chain must top up
	// from the real-time market (2.0, the Pgrid cap), then discharge the
	// UPS (0.5/slot), and shed only the remainder.
	set := flatSet(2, 3.0, 0, 0, 40, 50)
	ctrl := &scriptController{name: "script", gbef: 0}
	cfg := testConfig()
	cfg.Battery = battery.Sized(2.0, 30, 1) // 1 MWh battery
	cfg.Battery.InitialMWh = cfg.Battery.CapacityMWh
	rep, err := Run(cfg, set, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.RTEnergyMWh-2*2.0) > 1e-9 {
		t.Errorf("reactive real-time energy = %g, want 4 (Pgrid-capped)", rep.RTEnergyMWh)
	}
	if rep.BatteryOutMWh <= 0 {
		t.Error("passive rescue did not discharge the battery")
	}
	if rep.UnservedMWh <= 0 {
		t.Error("expected some unserved energy beyond grid + battery")
	}
	if rep.AvailabilityViolations == 0 {
		t.Error("expected availability violations")
	}
	if rep.EmergencyCostUSD <= 0 {
		t.Error("expected emergency penalty")
	}
}

func TestRunRescueCancelsCharge(t *testing.T) {
	// The controller charges while demand is uncovered; the engine must
	// cancel the charge before shedding.
	set := flatSet(1, 1.0, 0, 0.5, 40, 50)
	ctrl := &scriptController{
		name: "script",
		decide: func(obs FineObs) Decision {
			return Decision{Charge: math.Min(0.5, obs.MaxCharge)}
		},
	}
	cfg := testConfig()
	cfg.Battery = battery.Sized(2.0, 30, 1) // full 1 MWh store covers the gap
	cfg.Battery.InitialMWh = cfg.Battery.CapacityMWh
	rep, err := Run(cfg, set, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	// Renewable 0.5 vs demand 1.0: charge cancelled entirely, then the
	// real-time market covers the remaining 0.5 — the battery never moves.
	if rep.UnservedMWh > 1e-9 {
		t.Errorf("unserved = %g, want 0 (rescue should cover)", rep.UnservedMWh)
	}
	if rep.BatteryInMWh > 1e-9 {
		t.Errorf("charged = %g, want 0 (charge cancelled)", rep.BatteryInMWh)
	}
	if math.Abs(rep.RTEnergyMWh-0.5) > 1e-9 {
		t.Errorf("reactive purchase = %g, want 0.5", rep.RTEnergyMWh)
	}
	if rep.BatteryOutMWh != 0 {
		t.Errorf("battery discharged %g, want 0 (grid covers first)", rep.BatteryOutMWh)
	}
}

func TestRunRejectsBadDecisions(t *testing.T) {
	set := flatSet(4, 1.0, 0.5, 0, 40, 50)
	cases := []struct {
		name   string
		decide func(FineObs) Decision
	}{
		{"nan grt", func(FineObs) Decision { return Decision{Grt: math.NaN()} }},
		{"negative serve", func(FineObs) Decision { return Decision{ServeDT: -1} }},
		{"grt beyond headroom", func(o FineObs) Decision { return Decision{Grt: o.RTHeadroom + 1} }},
		{"serve beyond backlog", func(o FineObs) Decision { return Decision{ServeDT: o.Backlog + 1} }},
		{"charge beyond cap", func(o FineObs) Decision { return Decision{Charge: o.MaxCharge + 1} }},
		{"discharge beyond cap", func(o FineObs) Decision { return Decision{Discharge: o.MaxDischarge + 1} }},
		{"both directions", func(o FineObs) Decision {
			return Decision{Charge: 0.1, Discharge: 0.1}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctrl := &scriptController{name: "bad", decide: tc.decide}
			if _, err := Run(testConfig(), set, ctrl); err == nil {
				t.Error("bad decision accepted")
			}
		})
	}
}

func TestRunToleratesRoundoff(t *testing.T) {
	set := flatSet(4, 1.0, 0, 0, 40, 50)
	ctrl := &scriptController{
		name: "roundoff",
		gbef: 4.0,
		decide: func(o FineObs) Decision {
			return Decision{Grt: -1e-9} // sub-tolerance negative
		},
	}
	if _, err := Run(testConfig(), set, ctrl); err != nil {
		t.Fatalf("round-off rejected: %v", err)
	}
}

func TestRunBacklogAndOutcomes(t *testing.T) {
	set := flatSet(6, 0.2, 0.4, 0, 40, 50)
	served := 0.15
	ctrl := &scriptController{
		name: "queue",
		gbef: 12.0, // plenty
		decide: func(o FineObs) Decision {
			return Decision{ServeDT: math.Min(served, o.Backlog)}
		},
	}
	rep, err := Run(testConfig(), set, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	if len(ctrl.outcomes) != 6 {
		t.Fatalf("outcomes = %d, want 6", len(ctrl.outcomes))
	}
	// First slot: backlog 0 before arrivals → nothing served.
	if ctrl.outcomes[0].ServedDT != 0 {
		t.Errorf("slot 0 served %g, want 0", ctrl.outcomes[0].ServedDT)
	}
	if ctrl.outcomes[0].BacklogAfter != 0.4 {
		t.Errorf("slot 0 backlog after = %g, want 0.4", ctrl.outcomes[0].BacklogAfter)
	}
	// Later slots serve 0.15 each while 0.4 arrives: backlog grows.
	last := ctrl.outcomes[5]
	wantBacklog := 6*0.4 - 5*served
	if math.Abs(last.BacklogAfter-wantBacklog) > 1e-9 {
		t.Errorf("final backlog = %g, want %g", last.BacklogAfter, wantBacklog)
	}
	if math.Abs(rep.ServedDTMWh-5*served) > 1e-9 {
		t.Errorf("served total = %g, want %g", rep.ServedDTMWh, 5*served)
	}
}

func TestRunShortFinalInterval(t *testing.T) {
	// Horizon 10 with T=4: intervals of 4, 4, 2 slots.
	set := flatSet(10, 1, 0, 0, 40, 50)
	ctrl := &scriptController{name: "short", gbef: 2}
	if _, err := Run(testConfig(), set, ctrl); err != nil {
		t.Fatal(err)
	}
	if len(ctrl.coarseObs) != 3 {
		t.Fatalf("coarse calls = %d, want 3", len(ctrl.coarseObs))
	}
	if ctrl.coarseObs[2].Slots != 2 {
		t.Errorf("final interval slots = %d, want 2", ctrl.coarseObs[2].Slots)
	}
}

func TestReportString(t *testing.T) {
	set := flatSet(4, 1, 0, 0, 40, 50)
	ctrl := &scriptController{name: "str", gbef: 4}
	rep, err := Run(testConfig(), set, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{"controller=str", "cost:", "energy:", "delay:", "battery:"} {
		if !strings.Contains(out, want) {
			t.Errorf("report string missing %q:\n%s", want, out)
		}
	}
}

func TestRunClampsGbef(t *testing.T) {
	// Controller asks for more than T·Pgrid; the engine clamps it.
	set := flatSet(4, 1, 0, 0, 40, 50)
	ctrl := &scriptController{name: "greedy", gbef: 1e9}
	rep, err := Run(testConfig(), set, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LTEnergyMWh > 8*2.0+1e-9 {
		t.Errorf("LT energy %g exceeds horizon Pgrid budget", rep.LTEnergyMWh)
	}
}
