package smartdpss_test

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	dpss "github.com/smartdpss/smartdpss"
)

func testTraces(t *testing.T, days int) *dpss.Traces {
	t.Helper()
	tc := dpss.DefaultTraceConfig()
	tc.Days = days
	traces, err := dpss.GenerateTraces(tc)
	if err != nil {
		t.Fatal(err)
	}
	return traces
}

func TestGenerateTracesDefaults(t *testing.T) {
	traces := testTraces(t, 31)
	if traces.Horizon() != 31*24 {
		t.Fatalf("horizon = %d, want %d", traces.Horizon(), 31*24)
	}
	pen := traces.RenewablePenetration()
	if pen < 0.05 || pen > 0.5 {
		t.Errorf("default penetration = %g, want a visible solar share", pen)
	}
	if traces.DemandStdDev() <= 0 {
		t.Error("demand std must be positive")
	}
}

func TestGenerateTracesRejectsBadConfig(t *testing.T) {
	tc := dpss.DefaultTraceConfig()
	tc.Days = 0
	if _, err := dpss.GenerateTraces(tc); err == nil {
		t.Fatal("zero days accepted")
	}
}

func TestSimulateAllPolicies(t *testing.T) {
	traces := testTraces(t, 3)
	opts := dpss.DefaultOptions()
	opts.T = 12 // keep the horizon LP small
	for _, pol := range []dpss.Policy{
		dpss.PolicySmartDPSS,
		dpss.PolicyImpatient,
		dpss.PolicyOfflineOptimal,
		dpss.PolicyOfflineHorizon,
	} {
		t.Run(string(pol), func(t *testing.T) {
			rep, err := dpss.Simulate(pol, opts, traces)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Slots != 3*24 {
				t.Errorf("slots = %d", rep.Slots)
			}
			if rep.TotalCostUSD <= 0 {
				t.Error("cost must be positive")
			}
			if rep.UnservedMWh > 1e-6 {
				t.Errorf("unserved = %g", rep.UnservedMWh)
			}
		})
	}
}

func TestSimulateUnknownPolicy(t *testing.T) {
	traces := testTraces(t, 1)
	if _, err := dpss.Simulate(dpss.Policy("nope"), dpss.DefaultOptions(), traces); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestSimulateNilTraces(t *testing.T) {
	if _, err := dpss.Simulate(dpss.PolicySmartDPSS, dpss.DefaultOptions(), nil); err == nil {
		t.Fatal("nil traces accepted")
	}
}

func TestSimulateCostOrdering(t *testing.T) {
	traces := testTraces(t, 14)
	opts := dpss.DefaultOptions()

	smart, err := dpss.Simulate(dpss.PolicySmartDPSS, opts, traces)
	if err != nil {
		t.Fatal(err)
	}
	impatient, err := dpss.Simulate(dpss.PolicyImpatient, opts, traces)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := dpss.Simulate(dpss.PolicyOfflineOptimal, opts, traces)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline ordering (Fig. 6(a)).
	if !(offline.TotalCostUSD < smart.TotalCostUSD) {
		t.Errorf("offline $%.2f not below SmartDPSS $%.2f",
			offline.TotalCostUSD, smart.TotalCostUSD)
	}
	if !(smart.TotalCostUSD < impatient.TotalCostUSD) {
		t.Errorf("SmartDPSS $%.2f not below Impatient $%.2f",
			smart.TotalCostUSD, impatient.TotalCostUSD)
	}
	// And the delay ordering.
	if impatient.MeanDelaySlots > smart.MeanDelaySlots {
		t.Errorf("Impatient delay %.2f above SmartDPSS %.2f",
			impatient.MeanDelaySlots, smart.MeanDelaySlots)
	}
}

func TestObservationNoiseOption(t *testing.T) {
	traces := testTraces(t, 7)
	clean := dpss.DefaultOptions()
	noisy := clean
	noisy.ObservationNoise = 0.5
	noisy.NoiseSeed = 42

	cleanRep, err := dpss.Simulate(dpss.PolicySmartDPSS, clean, traces)
	if err != nil {
		t.Fatal(err)
	}
	noisyRep, err := dpss.Simulate(dpss.PolicySmartDPSS, noisy, traces)
	if err != nil {
		t.Fatal(err)
	}
	if cleanRep.TotalCostUSD == noisyRep.TotalCostUSD {
		t.Error("±50% observation noise had no effect")
	}
	// Robustness: the noisy run stays within a moderate band (Fig. 9).
	rel := math.Abs(noisyRep.TotalCostUSD-cleanRep.TotalCostUSD) / cleanRep.TotalCostUSD
	if rel > 0.25 {
		t.Errorf("noisy cost deviates %.1f%%, want < 25%%", 100*rel)
	}
}

func TestObservationNoiseValidation(t *testing.T) {
	traces := testTraces(t, 1)
	opts := dpss.DefaultOptions()
	opts.ObservationNoise = 1.5
	if _, err := dpss.Simulate(dpss.PolicySmartDPSS, opts, traces); err == nil {
		t.Fatal("noise fraction >= 1 accepted")
	}
}

func TestScaleSystemAndBatteryReference(t *testing.T) {
	traces := testTraces(t, 7)
	scaled := traces.Clone().ScaleSystem(2)

	opts := dpss.DefaultOptions()
	opts.PeakMW = 4.0
	opts.BatteryReferenceMW = 2.0
	rep, err := dpss.Simulate(dpss.PolicySmartDPSS, opts, scaled)
	if err != nil {
		t.Fatal(err)
	}
	base, err := dpss.Simulate(dpss.PolicySmartDPSS, dpss.DefaultOptions(), traces)
	if err != nil {
		t.Fatal(err)
	}
	ratio := rep.TotalCostUSD / base.TotalCostUSD
	if ratio < 1.5 || ratio > 2.6 {
		t.Errorf("2x system cost ratio = %.2f, want near-linear", ratio)
	}
}

func TestSetPenetrationEffect(t *testing.T) {
	lowPen := testTraces(t, 7)
	if err := lowPen.SetPenetration(0.1); err != nil {
		t.Fatal(err)
	}
	highPen := testTraces(t, 7)
	if err := highPen.SetPenetration(0.8); err != nil {
		t.Fatal(err)
	}
	opts := dpss.DefaultOptions()
	low, err := dpss.Simulate(dpss.PolicySmartDPSS, opts, lowPen)
	if err != nil {
		t.Fatal(err)
	}
	high, err := dpss.Simulate(dpss.PolicySmartDPSS, opts, highPen)
	if err != nil {
		t.Fatal(err)
	}
	if high.TotalCostUSD >= low.TotalCostUSD {
		t.Errorf("80%% penetration cost $%.2f not below 10%% cost $%.2f",
			high.TotalCostUSD, low.TotalCostUSD)
	}
}

func TestBounds(t *testing.T) {
	opts := dpss.DefaultOptions()
	b, err := dpss.Bounds(opts)
	if err != nil {
		t.Fatal(err)
	}
	if b.QMax <= 0 || b.YMax <= 0 || b.UMax <= 0 || b.LambdaMax <= 0 {
		t.Errorf("bounds not positive: %+v", b)
	}
	if math.Abs(b.UMax-(b.QMax+b.YMax-opts.V*opts.PmaxUSD/float64(opts.T))) > 1e-9 {
		t.Errorf("UMax inconsistent with QMax/YMax: %+v", b)
	}
	big := opts
	big.V = 5
	bigB, err := dpss.Bounds(big)
	if err != nil {
		t.Fatal(err)
	}
	if bigB.LambdaMax <= b.LambdaMax {
		t.Error("LambdaMax must grow with V")
	}
}

// TestBoundsRefusesWhatSessionsRefuse: Bounds accepts exactly the
// options a SmartDPSS session accepts and refuses the others with the
// session's ErrInvalidOptions error, instead of returning bounds of a
// controller that cannot be built (a λmax of math.MinInt for T = 0, a
// negative Qmax for V = −1).
func TestBoundsRefusesWhatSessionsRefuse(t *testing.T) {
	for _, c := range []struct {
		name string
		mut  func(*dpss.Options)
		ok   bool
	}{
		{"defaults", func(*dpss.Options) {}, true},
		{"zero T", func(o *dpss.Options) { o.T = 0 }, false},
		{"zero epsilon", func(o *dpss.Options) { o.Epsilon = 0 }, false},
		{"NaN V", func(o *dpss.Options) { o.V = math.NaN() }, false},
		{"negative V", func(o *dpss.Options) { o.V = -1 }, false},
	} {
		opts := dpss.DefaultOptions()
		c.mut(&opts)
		b, err := dpss.Bounds(opts)
		_, serr := dpss.NewSession(dpss.PolicySmartDPSS, opts, 1)
		if (err == nil) != c.ok || (serr == nil) != c.ok {
			t.Errorf("%s: Bounds err = %v, NewSession err = %v; want ok=%v for both", c.name, err, serr, c.ok)
			continue
		}
		if c.ok {
			if b.LambdaMax <= 0 || b.QMax <= 0 {
				t.Errorf("%s: bounds not positive: %+v", c.name, b)
			}
			continue
		}
		if !errors.Is(err, dpss.ErrInvalidOptions) || err.Error() != serr.Error() {
			t.Errorf("%s: Bounds err = %v, want NewSession's ErrInvalidOptions %v", c.name, err, serr)
		}
		if b != (dpss.TheoremBounds{}) {
			t.Errorf("%s: refused options returned bounds %+v", c.name, b)
		}
	}
}

func TestTraceCSVExport(t *testing.T) {
	traces := testTraces(t, 2)
	var buf bytes.Buffer
	if err := traces.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2*24+1 {
		t.Fatalf("lines = %d", len(lines))
	}
}

func TestTraceStatisticsOrder(t *testing.T) {
	traces := testTraces(t, 2)
	stats, err := dpss.TraceStatistics(traces)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 5 {
		t.Fatalf("stats = %d, want 5", len(stats))
	}
	if stats[4].Mean <= stats[3].Mean {
		t.Error("real-time price mean must exceed long-term mean")
	}
	if _, err := dpss.TraceStatistics(nil); err == nil {
		t.Error("nil traces accepted")
	}
}

func TestDeterministicSimulation(t *testing.T) {
	a, err := dpss.Simulate(dpss.PolicySmartDPSS, dpss.DefaultOptions(), testTraces(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := dpss.Simulate(dpss.PolicySmartDPSS, dpss.DefaultOptions(), testTraces(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCostUSD != b.TotalCostUSD || a.MeanDelaySlots != b.MeanDelaySlots {
		t.Error("simulation is not deterministic")
	}
}
