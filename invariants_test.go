package smartdpss_test

// Cross-policy physics-invariant harness: every policy arm, on
// randomized configurations, must respect the plant's physics slot by
// slot — battery state of charge within bounds and consistent with the
// executed charge/discharge flows, the slot energy balance closed,
// costs non-negative, the backlog recurrence exact, and the final
// Report totals equal to the sum of the committed slot outcomes. The
// property loop (TestPolicyInvariants) is -short friendly; the fuzz
// target (FuzzPolicyInvariants) lets the fuzzer mutate the scenario
// seed and option knobs beyond the seeded corpus.

import (
	"math"
	"math/rand"
	"testing"

	dpss "github.com/smartdpss/smartdpss"
)

// invariantPolicies is every policy arm the engine can instantiate.
var invariantPolicies = []dpss.Policy{
	dpss.PolicySmartDPSS,
	dpss.PolicyImpatient,
	dpss.PolicyOfflineOptimal,
	dpss.PolicyOfflineHorizon,
	dpss.PolicyLookahead,
	dpss.PolicyLyapunov,
}

// invariantScenario derives a randomized-but-valid configuration from a
// seed: the same seed always builds the same scenario, so fuzz crashes
// reproduce. A third of the scenarios carry a fleet (invariantFleet).
func invariantScenario(seed int64) (dpss.Options, dpss.TraceConfig) {
	r := rand.New(rand.NewSource(seed))
	opts := dpss.DefaultOptions()
	opts.V = 0.1 + 4*r.Float64()
	opts.Epsilon = 0.1 + r.Float64()
	opts.T = []int{6, 12, 24}[r.Intn(3)]
	opts.PeakMW = 1 + 2*r.Float64()
	opts.BatteryMinutes = []float64{0, 15, 30}[r.Intn(3)]
	opts.LyapunovV = 0 // scale-aware default
	opts.LyapunovTheta = 0.1 + 0.8*r.Float64()
	if r.Intn(3) == 0 {
		opts.BatteryMaxOps = 10 + r.Intn(60)
	}
	if r.Intn(3) == 0 {
		opts.Fleet, opts.CommitWindow, opts.CarbonUSDPerTon = invariantFleet(seed, 0.5+r.Float64())
	}
	if r.Intn(4) == 0 {
		opts.DisableLongTerm = true
	}
	if r.Intn(4) == 0 {
		opts.ObservationNoise = 0.2 * r.Float64()
		opts.NoiseSeed = seed
	}
	tc := dpss.DefaultTraceConfig()
	tc.Days = 2
	tc.Seed = seed
	return opts, tc
}

// invariantFleet draws one to four units with startup lags, quadratic
// fuel curves and emission intensities, sometimes one of zero capacity
// (which the engine drops), a commitment window from {0, 1, 12, 24} and
// sometimes a carbon price. It draws from its own stream, seeded from
// the scenario seed, so the scenario's own draws keep their values;
// unit 0 takes capMW, the scenario's one fleet draw.
func invariantFleet(seed int64, capMW float64) (fleet []dpss.UnitSpec, commitWindow int, carbonUSDPerTon float64) {
	r := rand.New(rand.NewSource(seed ^ 0x5eedf1ee7))
	fleet = make([]dpss.UnitSpec, 1+r.Intn(4))
	for i := range fleet {
		u := &fleet[i]
		u.CapacityMW = 0.2 + 1.3*r.Float64()
		u.MinLoadFrac = 0.6 * r.Float64()
		u.FuelUSDPerMWh = 20 + 100*r.Float64()
		if r.Intn(2) == 0 {
			u.FuelQuadUSD = 20 * r.Float64()
		}
		u.StartupUSD = 50 * r.Float64()
		u.StartupLagSlots = r.Intn(4)
		u.CO2KgPerMWh = 900 * r.Float64()
	}
	fleet[0].CapacityMW = capMW
	if r.Intn(4) == 0 {
		fleet[r.Intn(len(fleet))].CapacityMW = 0
	}
	commitWindow = []int{0, 1, 12, 24}[r.Intn(4)]
	if r.Intn(2) == 0 {
		carbonUSDPerTon = 100 * r.Float64()
	}
	return fleet, commitWindow, carbonUSDPerTon
}

// checkPolicyInvariants replays the policy slot by slot and asserts the
// physics invariants on every committed outcome, then reconciles the
// final report against the accumulated slot stream.
func checkPolicyInvariants(t *testing.T, policy dpss.Policy, opts dpss.Options, traces *dpss.Traces) {
	t.Helper()
	sess, err := dpss.NewReplaySession(policy, opts, traces)
	if err != nil {
		t.Fatalf("%s: session: %v", policy, err)
	}
	bp := opts.BaselineConfig().Battery
	const tol = 1e-6
	level := bp.InitialMWh
	var cost, grid, gen, waste, unserved, served, charged, discharged float64
	for !sess.Done() {
		slot := sess.Slot()
		in := traces.InputAt(slot)
		out, err := sess.StepReplay()
		if err != nil {
			t.Fatalf("%s slot %d: %v", policy, slot, err)
		}

		if math.IsNaN(out.CostUSD) || out.CostUSD < -tol {
			t.Fatalf("%s slot %d: cost %g", policy, slot, out.CostUSD)
		}
		ex := out.Executed
		if ex.Charge > tol && ex.Discharge > tol {
			t.Fatalf("%s slot %d: charge %g and discharge %g together", policy, slot, ex.Charge, ex.Discharge)
		}

		// Slot energy balance: grid + renewable + generation + discharge
		// = served demand + deferrable service + charge + waste.
		lhs := out.GridMWh + in.Renewable + out.GenMWh + ex.Discharge
		rhs := (in.DemandDS - out.Unserved) + out.ServedDT + ex.Charge + out.Waste
		if math.Abs(lhs-rhs) > tol {
			t.Fatalf("%s slot %d: energy balance %g != %g (diff %g)", policy, slot, lhs, rhs, lhs-rhs)
		}

		// Backlog recurrence: after = before − served + arrivals.
		if want := out.BacklogBefore - out.ServedDT + in.DemandDT; math.Abs(out.BacklogAfter-want) > tol {
			t.Fatalf("%s slot %d: backlog %g, want %g", policy, slot, out.BacklogAfter, want)
		}

		// Battery flow and state-of-charge bounds: the efficiency-scaled
		// terminal flows must reproduce the level the plant reports.
		next := level + bp.ChargeEff*ex.Charge - bp.DischargeEff*ex.Discharge
		next = math.Min(bp.CapacityMWh, math.Max(bp.MinLevelMWh, next))
		if math.Abs(out.Battery-next) > tol {
			t.Fatalf("%s slot %d: battery level %g, flows predict %g", policy, slot, out.Battery, next)
		}
		if out.Battery < bp.MinLevelMWh-tol || out.Battery > bp.CapacityMWh+tol {
			t.Fatalf("%s slot %d: battery %g outside [%g, %g]",
				policy, slot, out.Battery, bp.MinLevelMWh, bp.CapacityMWh)
		}
		level = out.Battery

		cost += out.CostUSD
		grid += out.GridMWh
		gen += out.GenMWh
		waste += out.Waste
		unserved += out.Unserved
		served += out.ServedDT
		charged += ex.Charge
		discharged += ex.Discharge
	}

	rep, err := sess.Finish()
	if err != nil {
		t.Fatalf("%s: finish: %v", policy, err)
	}
	reconcile := func(name string, sum, total float64) {
		t.Helper()
		if math.Abs(sum-total) > tol*(1+math.Abs(total)) {
			t.Errorf("%s: Σslot %s = %g, report says %g", policy, name, sum, total)
		}
	}
	reconcile("cost", cost, rep.TotalCostUSD)
	reconcile("grid energy", grid, rep.LTEnergyMWh+rep.RTEnergyMWh)
	reconcile("generation", gen, rep.GenEnergyMWh)
	reconcile("waste", waste, rep.WasteMWh)
	reconcile("unserved", unserved, rep.UnservedMWh)
	reconcile("served DT", served, rep.ServedDTMWh)
	reconcile("battery in", charged, rep.BatteryInMWh)
	reconcile("battery out", discharged, rep.BatteryOutMWh)
	if opts.BatteryMaxOps > 0 && rep.BatteryOps > opts.BatteryMaxOps {
		t.Errorf("%s: battery ops %d exceed budget %d", policy, rep.BatteryOps, opts.BatteryMaxOps)
	}
	if rep.BatteryMinMWh < bp.MinLevelMWh-tol || rep.BatteryMaxMWh > bp.CapacityMWh+tol {
		t.Errorf("%s: battery excursion [%g, %g] outside [%g, %g]",
			policy, rep.BatteryMinMWh, rep.BatteryMaxMWh, bp.MinLevelMWh, bp.CapacityMWh)
	}
}

// runInvariantScenario runs every policy arm over one derived scenario.
func runInvariantScenario(t *testing.T, seed int64) {
	t.Helper()
	opts, tc := invariantScenario(seed)
	traces, err := dpss.GenerateTraces(tc)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range invariantPolicies {
		checkPolicyInvariants(t, policy, opts, traces)
	}
}

// TestPolicyInvariants is the -short-friendly property loop: a handful
// of randomized configurations, all policy arms each.
func TestPolicyInvariants(t *testing.T) {
	seeds := []int64{1, 2, 3, 7, 42, 1103, 3099, 9001}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		runInvariantScenario(t, seed)
	}
}

// FuzzPolicyInvariants lets the fuzzer wander the scenario space; the
// corpus seeds mirror the property loop so plain `go test` replays
// them.
func FuzzPolicyInvariants(f *testing.F) {
	for _, seed := range []int64{1, 2, 42, 1103} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		runInvariantScenario(t, seed)
	})
}
