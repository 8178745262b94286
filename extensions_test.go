package smartdpss_test

// Tests for the library extensions beyond the paper's evaluation: wind
// generation (Sec. I names "solar and wind energies"), the UPS cycle
// budget Nmax (Eq. 9), and peak-draw accounting (the paper's declared
// future work).

import (
	"math"
	"testing"

	dpss "github.com/smartdpss/smartdpss"
)

func TestWindMixing(t *testing.T) {
	solarOnly := dpss.DefaultTraceConfig()
	solarOnly.Days = 7
	sTraces, err := dpss.GenerateTraces(solarOnly)
	if err != nil {
		t.Fatal(err)
	}

	mixed := solarOnly
	mixed.WindCapacityMW = 1.0
	mTraces, err := dpss.GenerateTraces(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if mTraces.RenewablePenetration() <= sTraces.RenewablePenetration() {
		t.Error("adding wind must raise penetration")
	}
	sNight, _ := sTraces.RenewableNightSplit()
	mNight, _ := mTraces.RenewableNightSplit()
	if sNight != 0 {
		t.Errorf("solar-only night production = %g, want 0", sNight)
	}
	if mNight <= 0 {
		t.Error("mixed portfolio must produce at night")
	}
}

func TestBatteryMaxOpsOption(t *testing.T) {
	traces := testTraces(t, 7)
	unlimited := dpss.DefaultOptions()
	limited := unlimited
	limited.BatteryMaxOps = 10

	uRep, err := dpss.Simulate(dpss.PolicySmartDPSS, unlimited, traces)
	if err != nil {
		t.Fatal(err)
	}
	lRep, err := dpss.Simulate(dpss.PolicySmartDPSS, limited, traces)
	if err != nil {
		t.Fatal(err)
	}
	if lRep.BatteryOps > 10 {
		t.Errorf("battery ops = %d under Nmax=10", lRep.BatteryOps)
	}
	if uRep.BatteryOps <= 10 {
		t.Skip("unlimited run used too few ops to compare")
	}
	if lRep.UnservedMWh > 1e-6 {
		t.Errorf("unserved = %g with a frozen battery", lRep.UnservedMWh)
	}
}

func TestPeakChargeOption(t *testing.T) {
	traces := testTraces(t, 7)
	opts := dpss.DefaultOptions()
	opts.PeakChargeUSDPerMW = 8000
	rep, err := dpss.Simulate(dpss.PolicySmartDPSS, opts, traces)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeakGridMW <= 0 || rep.PeakGridMW > opts.PeakMW+1e-9 {
		t.Errorf("peak draw = %g MW outside (0, Pgrid]", rep.PeakGridMW)
	}
	want := rep.PeakGridMW * 8000
	if math.Abs(rep.PeakChargeUSD-want) > 1e-6 {
		t.Errorf("peak charge = %g, want %g", rep.PeakChargeUSD, want)
	}
	// The demand charge is reported separately from Cost(τ).
	noCharge := dpss.DefaultOptions()
	base, err := dpss.Simulate(dpss.PolicySmartDPSS, noCharge, traces)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(base.TotalCostUSD-rep.TotalCostUSD) > 1e-6 {
		t.Errorf("demand charge leaked into Cost(τ): %g vs %g",
			rep.TotalCostUSD, base.TotalCostUSD)
	}
}

func TestApplyCooling(t *testing.T) {
	before, err := dpss.TraceStatistics(testTraces(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	tc := dpss.DefaultTraceConfig()
	tc.Days = 7
	tc.Cooling = &dpss.CoolingConfig{MeanTempC: 26, Seed: 5}
	traces, err := dpss.GenerateTraces(tc)
	if err != nil {
		t.Fatal(err)
	}
	if avgPUE := traces.AveragePUE(); avgPUE <= 1.12 {
		t.Errorf("summer avg PUE = %g, want above the free-cooling base", avgPUE)
	}
	after, err := dpss.TraceStatistics(traces)
	if err != nil {
		t.Fatal(err)
	}
	if after[0].Sum <= before[0].Sum {
		t.Error("cooling coupling did not raise delay-sensitive demand")
	}
	// Coupled traces still simulate cleanly.
	rep, err := dpss.Simulate(dpss.PolicySmartDPSS, dpss.DefaultOptions(), traces)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UnservedMWh > 1e-6 {
		t.Errorf("unserved = %g after cooling coupling", rep.UnservedMWh)
	}
}

func TestLookaheadPolicyDefaults(t *testing.T) {
	traces := testTraces(t, 2)
	opts := dpss.DefaultOptions()
	opts.T = 6 // default window = T
	rep, err := dpss.Simulate(dpss.PolicyLookahead, opts, traces)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Controller != "Lookahead(6)" {
		t.Errorf("controller = %q, want Lookahead(6)", rep.Controller)
	}
}
