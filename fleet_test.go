package smartdpss_test

// Acceptance coverage for the multi-unit generator fleet: the
// commitment lookahead must strictly beat the myopic W=1 arm at a
// near-break-even fuel point (the ROADMAP's "underuses small units"
// note), emissions accounting must add up, and heterogeneous fleets
// must dispatch in merit order.

import (
	"math"
	"reflect"
	"testing"

	dpss "github.com/smartdpss/smartdpss"
)

// TestFleetCommitmentLookaheadBeatsMyopic is the acceptance assertion:
// at a near-break-even fuel price (45 $/MWh, between the long-term
// level ~38 and the real-time mean ~47) the W>1 commitment lookahead
// must strictly beat the myopic W=1 arm, recovering the savings the
// flapping starts leave on the table.
func TestFleetCommitmentLookaheadBeatsMyopic(t *testing.T) {
	traces := genTraces(t)
	unit := []dpss.UnitSpec{{CapacityMW: 0.25, MinLoadFrac: 0.2, FuelUSDPerMWh: 45, StartupUSD: 15}}

	run := func(w int) *dpss.Report {
		t.Helper()
		o := dpss.DefaultOptions()
		o.Fleet = unit
		o.CommitWindow = w
		rep, err := dpss.Simulate(dpss.PolicySmartDPSS, o, traces)
		if err != nil {
			t.Fatalf("W=%d: %v", w, err)
		}
		return rep
	}
	myopic := run(1)
	lookahead := run(12)

	if lookahead.TotalCostUSD >= myopic.TotalCostUSD {
		t.Errorf("W=12 cost $%.2f does not beat myopic W=1 $%.2f",
			lookahead.TotalCostUSD, myopic.TotalCostUSD)
	}
	if lookahead.GenStarts >= myopic.GenStarts {
		t.Errorf("W=12 starts %d not below myopic %d (the whole point of committing)",
			lookahead.GenStarts, myopic.GenStarts)
	}
}

// TestFleetCommitWindowOneIsMyopic: W=1 (and W=0) must reproduce the
// myopic arm exactly — the degenerate case of the lookahead.
func TestFleetCommitWindowOneIsMyopic(t *testing.T) {
	traces := genTraces(t)
	var reports []*dpss.Report
	for _, w := range []int{0, 1} {
		o := dpss.DefaultOptions()
		o.Fleet = []dpss.UnitSpec{{CapacityMW: 0.5, MinLoadFrac: 0.2, FuelUSDPerMWh: 45, StartupUSD: 10}}
		o.CommitWindow = w
		rep, err := dpss.Simulate(dpss.PolicySmartDPSS, o, traces)
		if err != nil {
			t.Fatalf("W=%d: %v", w, err)
		}
		reports = append(reports, rep)
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Error("W=0 and W=1 disagree; both must be the myopic arm")
	}
}

// TestFleetCO2Accounting: emissions must equal energy × intensity per
// unit, sum across the fleet, and never enter the cost decomposition
// without a carbon price.
func TestFleetCO2Accounting(t *testing.T) {
	traces := genTraces(t)
	o := dpss.DefaultOptions()
	o.Fleet = []dpss.UnitSpec{
		{CapacityMW: 0.5, MinLoadFrac: 0.2, FuelUSDPerMWh: 30, CO2KgPerMWh: 800},
		{CapacityMW: 0.25, FuelUSDPerMWh: 35, CO2KgPerMWh: 400},
	}
	rep, err := dpss.Simulate(dpss.PolicySmartDPSS, o, traces)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GenEnergyMWh <= 0 {
		t.Fatal("cheap fleet never dispatched")
	}
	if len(rep.GenUnits) != 2 {
		t.Fatalf("per-unit breakdown has %d entries, want 2", len(rep.GenUnits))
	}
	sum := 0.0
	for i, u := range rep.GenUnits {
		intensity := o.Fleet[i].CO2KgPerMWh
		if want := u.EnergyMWh * intensity; math.Abs(u.CO2Kg-want) > 1e-6 {
			t.Errorf("unit %d CO2 %.3f kg != %.3f MWh × %g kg/MWh", i, u.CO2Kg, u.EnergyMWh, intensity)
		}
		sum += u.CO2Kg
	}
	if math.Abs(sum-rep.GenCO2Kg) > 1e-6 {
		t.Errorf("fleet CO2 %.3f != per-unit sum %.3f", rep.GenCO2Kg, sum)
	}
	// The cost decomposition must balance with fuel and startup only —
	// emissions are an account, not a charge, until a carbon price maps
	// them into the fuel curve.
	parts := rep.LTCostUSD + rep.RTCostUSD + rep.BatteryOpUSD + rep.WasteCostUSD +
		rep.GenFuelUSD + rep.GenStartupUSD
	if math.Abs(parts-rep.TotalCostUSD) > 1e-6 {
		t.Errorf("cost decomposition %.6f != total %.6f", parts, rep.TotalCostUSD)
	}
}

// TestFleetCarbonPriceShiftsDispatch: a carbon price must shift
// dispatch from the dirty unit toward the clean one and cut fleet
// emissions.
func TestFleetCarbonPriceShiftsDispatch(t *testing.T) {
	traces := genTraces(t)
	units := []dpss.UnitSpec{
		{CapacityMW: 0.5, MinLoadFrac: 0.2, FuelUSDPerMWh: 39, StartupUSD: 10, CO2KgPerMWh: 850},
		{CapacityMW: 0.5, MinLoadFrac: 0.2, FuelUSDPerMWh: 43, StartupUSD: 10, CO2KgPerMWh: 250},
	}
	run := func(carbon float64) *dpss.Report {
		t.Helper()
		o := dpss.DefaultOptions()
		o.Fleet = units
		o.CommitWindow = 12
		o.CarbonUSDPerTon = carbon
		rep, err := dpss.Simulate(dpss.PolicySmartDPSS, o, traces)
		if err != nil {
			t.Fatalf("carbon %g: %v", carbon, err)
		}
		return rep
	}
	free := run(0)
	priced := run(20)
	if free.GenUnits[0].EnergyMWh <= free.GenUnits[1].EnergyMWh {
		t.Errorf("without a carbon price the cheaper dirty unit should lead: %.2f vs %.2f",
			free.GenUnits[0].EnergyMWh, free.GenUnits[1].EnergyMWh)
	}
	if priced.GenCO2Kg >= free.GenCO2Kg {
		t.Errorf("carbon price did not cut emissions: %.1f -> %.1f kg", free.GenCO2Kg, priced.GenCO2Kg)
	}
	dirtyShareFree := free.GenUnits[0].EnergyMWh / math.Max(1e-9, free.GenEnergyMWh)
	dirtySharePriced := priced.GenUnits[0].EnergyMWh / math.Max(1e-9, priced.GenEnergyMWh)
	if priced.GenEnergyMWh > 0 && dirtySharePriced >= dirtyShareFree {
		t.Errorf("carbon price did not shift dispatch off the dirty unit: share %.2f -> %.2f",
			dirtyShareFree, dirtySharePriced)
	}
}

// TestFleetMeritOrderDispatch: with two always-profitable units, the
// cheaper one must carry more energy.
func TestFleetMeritOrderDispatch(t *testing.T) {
	traces := genTraces(t)
	o := dpss.DefaultOptions()
	o.Fleet = []dpss.UnitSpec{
		{CapacityMW: 0.3, FuelUSDPerMWh: 34}, // listed expensive-first on purpose:
		{CapacityMW: 0.3, FuelUSDPerMWh: 25}, // merit order must ignore fleet order
	}
	rep, err := dpss.Simulate(dpss.PolicySmartDPSS, o, traces)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.GenUnits) != 2 {
		t.Fatalf("per-unit breakdown has %d entries", len(rep.GenUnits))
	}
	if rep.GenUnits[1].EnergyMWh <= rep.GenUnits[0].EnergyMWh {
		t.Errorf("cheap unit produced %.2f MWh <= expensive unit's %.2f",
			rep.GenUnits[1].EnergyMWh, rep.GenUnits[0].EnergyMWh)
	}
}
