package smartdpss_test

// Edge-case coverage for the on-site generation subsystem through the
// public API: a zero-capacity unit must be indistinguishable from a
// generator-free run, a minimum stable load above demand must
// still dispatch cleanly, and the generator must keep the system running
// when the UPS operation budget (Nmax) is exhausted.

import (
	"math"
	"reflect"
	"testing"

	dpss "github.com/smartdpss/smartdpss"
)

// genTraces returns a short deterministic scenario shared by the tests.
func genTraces(t *testing.T) *dpss.Traces {
	t.Helper()
	tc := dpss.DefaultTraceConfig()
	tc.Days = 7
	traces, err := dpss.GenerateTraces(tc)
	if err != nil {
		t.Fatal(err)
	}
	return traces
}

// TestGeneratorZeroCapacityInert: a unit with CapacityMW == 0 is no
// unit — every other field must be ignored, and under every policy the
// report must be deeply equal to the plain generator-free run (no LP
// commitment column, no Report.GenUnits row). This is the guarantee
// behind the provisioning tables' generator-free column.
func TestGeneratorZeroCapacityInert(t *testing.T) {
	traces := genTraces(t)
	for _, policy := range []dpss.Policy{
		dpss.PolicySmartDPSS, dpss.PolicyImpatient,
		dpss.PolicyOfflineOptimal, dpss.PolicyOfflineHorizon,
		dpss.PolicyLookahead, dpss.PolicyLyapunov,
	} {
		plain, err := dpss.Simulate(policy, dpss.DefaultOptions(), traces)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		opts := dpss.DefaultOptions()
		opts.Fleet = []dpss.UnitSpec{{
			CapacityMW:      0, // no unit: everything below must be ignored
			MinLoadFrac:     0.9,
			FuelUSDPerMWh:   1, // absurdly cheap — but there is no unit
			FuelQuadUSD:     7,
			StartupUSD:      1e6,
			StartupLagSlots: 3,
		}}
		gated, err := dpss.Simulate(policy, opts, traces)
		if err != nil {
			t.Fatalf("%s with gated generator: %v", policy, err)
		}
		if !reflect.DeepEqual(plain, gated) {
			t.Errorf("%s: zero-capacity generator changed the report:\n%v\nvs\n%v", policy, plain, gated)
		}
		if gated.GenUnits != nil || gated.GenEnergyMWh != 0 || gated.GenFuelUSD != 0 || gated.GenStarts != 0 {
			t.Errorf("%s: zero-capacity generator accumulated output: %+v", policy, gated)
		}

		// An empty fleet — even with the fleet knobs set — must be just
		// as inert: the empty-fleet byte-identity acceptance invariant.
		empty := dpss.DefaultOptions()
		empty.Fleet = []dpss.UnitSpec{}
		empty.CommitWindow = 24
		empty.CarbonUSDPerTon = 100
		fleetless, err := dpss.Simulate(policy, empty, traces)
		if err != nil {
			t.Fatalf("%s with empty fleet: %v", policy, err)
		}
		if !reflect.DeepEqual(plain, fleetless) {
			t.Errorf("%s: empty fleet changed the report:\n%v\nvs\n%v", policy, plain, fleetless)
		}
		if fleetless.GenUnits != nil || fleetless.GenCO2Kg != 0 {
			t.Errorf("%s: empty fleet accumulated per-unit state: %+v", policy, fleetless)
		}
	}
}

// TestGeneratorDispatches: a unit with fuel cheaper than the grid must
// actually carry load and its costs must appear in the decomposition.
func TestGeneratorDispatches(t *testing.T) {
	traces := genTraces(t)
	opts := dpss.DefaultOptions()
	opts.Fleet = []dpss.UnitSpec{{CapacityMW: 0.5, FuelUSDPerMWh: 25}} // below even the long-term price level
	rep, err := dpss.Simulate(dpss.PolicySmartDPSS, opts, traces)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GenEnergyMWh <= 0 || rep.GenSlots <= 0 {
		t.Fatalf("cheap generator never dispatched: %+v", rep)
	}
	if rep.GenFuelUSD <= 0 {
		t.Fatalf("dispatched energy has no fuel cost: %+v", rep)
	}
	sum := rep.LTCostUSD + rep.RTCostUSD + rep.BatteryOpUSD + rep.WasteCostUSD +
		rep.GenFuelUSD + rep.GenStartupUSD
	if math.Abs(sum-rep.TotalCostUSD) > 1e-6 {
		t.Fatalf("cost decomposition %.6f != total %.6f", sum, rep.TotalCostUSD)
	}

	// And it must not be worse than going without: the controller only
	// dispatches when the drift objective says it pays.
	plain, err := dpss.Simulate(dpss.PolicySmartDPSS, dpss.DefaultOptions(), traces)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalCostUSD > plain.TotalCostUSD*1.02 {
		t.Fatalf("cheap generator made things worse: $%.2f vs $%.2f", rep.TotalCostUSD, plain.TotalCostUSD)
	}
}

// TestGeneratorMinLoadAboveDemand: with the minimum stable load pinned to
// the full capacity (MinLoadFrac = 1) and that capacity above the typical
// demand, every producing slot must emit exactly the minimum load and the
// surplus must drain into the battery or waste — never break the run.
func TestGeneratorMinLoadAboveDemand(t *testing.T) {
	traces := genTraces(t)
	opts := dpss.DefaultOptions()
	opts.Fleet = []dpss.UnitSpec{{
		CapacityMW:    2.0, // at the peak: min load exceeds most slots' demand
		MinLoadFrac:   1.0,
		FuelUSDPerMWh: 5, // nearly free, so dispatch is tempting
	}}
	rep, err := dpss.Simulate(dpss.PolicySmartDPSS, opts, traces)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GenSlots > 0 {
		// All-or-nothing unit: energy must be exactly slots × min load.
		want := float64(rep.GenSlots) * 2.0
		if math.Abs(rep.GenEnergyMWh-want) > 1e-6 {
			t.Fatalf("all-or-nothing unit produced %.6f MWh over %d slots, want %.6f",
				rep.GenEnergyMWh, rep.GenSlots, want)
		}
	}
	if rep.UnservedMWh > 1e-9 {
		t.Fatalf("min-load surplus shed demand: %+v", rep)
	}
	if rep.Availability < 1 {
		t.Fatalf("availability dropped under min-load dispatch: %v", rep.Availability)
	}
}

// TestGeneratorWithExhaustedBatteryOps: once the Nmax operation budget
// freezes the UPS, the generator must still dispatch — the two budgets
// are independent — and the run must stay clean.
func TestGeneratorWithExhaustedBatteryOps(t *testing.T) {
	traces := genTraces(t)
	opts := dpss.DefaultOptions()
	opts.BatteryMaxOps = 5 // exhausted within the first day
	opts.Fleet = []dpss.UnitSpec{{CapacityMW: 0.5, FuelUSDPerMWh: 25}}
	rep, err := dpss.Simulate(dpss.PolicySmartDPSS, opts, traces)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BatteryOps > 5 {
		t.Fatalf("battery exceeded its operation budget: %d ops", rep.BatteryOps)
	}
	if rep.GenEnergyMWh <= 0 {
		t.Fatalf("generator idle despite a frozen battery: %+v", rep)
	}
	if rep.UnservedMWh > 1e-9 {
		t.Fatalf("demand shed with a frozen battery but a live generator: %+v", rep)
	}

	// The frozen-battery system must not beat the unconstrained one.
	free := opts
	free.BatteryMaxOps = 0
	unconstrained, err := dpss.Simulate(dpss.PolicySmartDPSS, free, traces)
	if err != nil {
		t.Fatal(err)
	}
	if unconstrained.TotalCostUSD > rep.TotalCostUSD*1.02 {
		t.Fatalf("removing the ops budget made things worse: $%.2f vs $%.2f",
			unconstrained.TotalCostUSD, rep.TotalCostUSD)
	}
}

// TestGeneratorStartupLagAndCost: a startup lag must delay (not prevent)
// dispatch, and every cold start must be billed.
func TestGeneratorStartupLagAndCost(t *testing.T) {
	traces := genTraces(t)
	opts := dpss.DefaultOptions()
	opts.Fleet = []dpss.UnitSpec{{CapacityMW: 0.5, FuelUSDPerMWh: 25, StartupUSD: 30, StartupLagSlots: 2}}
	rep, err := dpss.Simulate(dpss.PolicySmartDPSS, opts, traces)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GenStarts <= 0 {
		t.Fatalf("no cold starts recorded: %+v", rep)
	}
	want := float64(rep.GenStarts) * 30
	if math.Abs(rep.GenStartupUSD-want) > 1e-9 {
		t.Fatalf("startup billing %.2f != %d starts × $30", rep.GenStartupUSD, rep.GenStarts)
	}
}
