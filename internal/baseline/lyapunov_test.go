package baseline

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/smartdpss/smartdpss/internal/battery"
	"github.com/smartdpss/smartdpss/internal/sim"
	"github.com/smartdpss/smartdpss/internal/trace"
)

// lyapunovTestConfig pins a unit battery with round numbers so the
// threshold arithmetic in the tests is exact: θ = 0.5, ηc = 0.8,
// ηd = 1.25, V = 1 → charge below p = 0.8·(0.5−b), discharge above
// p = 1.25·(0.5−b).
func lyapunovTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Battery = battery.Params{
		CapacityMWh:     1,
		MinLevelMWh:     0,
		MaxChargeMWh:    0.5,
		MaxDischargeMWh: 0.5,
		ChargeEff:       0.8,
		DischargeEff:    1.25,
		OpCostUSD:       0.1,
		InitialMWh:      0.5,
	}
	return cfg
}

func newTestLyapunov(t *testing.T) *Lyapunov {
	t.Helper()
	l, err := NewLyapunov(lyapunovTestConfig(), 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLyapunovThresholdRegimes(t *testing.T) {
	l := newTestLyapunov(t)
	cases := []struct {
		name      string
		battery   float64
		price     float64
		charge    bool
		discharge bool
	}{
		// b = 0.1 (x = −0.4): charge below 0.32, discharge above 0.5.
		{"cheap below theta charges", 0.1, 0.20, true, false},
		{"deadband between thresholds", 0.1, 0.40, false, false},
		{"expensive below theta discharges", 0.1, 0.60, false, true},
		// b = 0.8 (x = +0.3): both thresholds negative → any price
		// discharges.
		{"above theta discharges at any price", 0.8, 0.01, false, true},
		// b = θ: the queue term vanishes, so the positive price term
		// alone drives a discharge (steady state settles below θ).
		{"at theta positive price discharges", 0.5, 0.40, false, true},
		// b = θ at a zero price: both strict inequalities sit at 0 →
		// deadband.
		{"at theta zero price idles", 0.5, 0, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			obs := sim.FineObs{
				PriceRT: tc.price, Battery: tc.battery,
				DemandDS: 0.6, LongTermDue: 0.2, SdtMax: 1.0,
				RTHeadroom: 2.0, MaxCharge: 0.5, MaxDischarge: 0.5,
			}
			dec := l.PlanFine(&obs)
			if (dec.Charge > 1e-12) != tc.charge {
				t.Errorf("Charge = %g, want charging=%v", dec.Charge, tc.charge)
			}
			if (dec.Discharge > 1e-12) != tc.discharge {
				t.Errorf("Discharge = %g, want discharging=%v", dec.Discharge, tc.discharge)
			}
			if dec.Charge > 1e-12 && dec.Discharge > 1e-12 {
				t.Errorf("charge and discharge both fired: %+v", dec)
			}
		})
	}
}

func TestLyapunovDischargeCoversDemandBeforeGrid(t *testing.T) {
	l := newTestLyapunov(t)
	obs := sim.FineObs{
		PriceRT: 100, Battery: 0.8, // discharge regime
		DemandDS: 0.9, Backlog: 0.3, SdtMax: 1.0,
		LongTermDue: 0.2, RTHeadroom: 2.0,
		MaxCharge: 0.5, MaxDischarge: 0.5,
	}
	dec := l.PlanFine(&obs)
	// Need 0.9 + 0.3 = 1.2, base 0.2, deficit 1.0: battery first (0.5),
	// grid covers the rest (0.5).
	if math.Abs(dec.ServeDT-0.3) > 1e-12 {
		t.Errorf("ServeDT = %g, want 0.3", dec.ServeDT)
	}
	if math.Abs(dec.Discharge-0.5) > 1e-12 || math.Abs(dec.Grt-0.5) > 1e-12 {
		t.Errorf("dec = %+v, want discharge=0.5 grt=0.5", dec)
	}
}

func TestLyapunovDischargeOnlyWhatIsUseful(t *testing.T) {
	l := newTestLyapunov(t)
	obs := sim.FineObs{
		PriceRT: 100, Battery: 0.8, // discharge regime
		DemandDS: 0.3, LongTermDue: 0.2, SdtMax: 1.0,
		RTHeadroom: 2.0, MaxCharge: 0.5, MaxDischarge: 0.5,
	}
	dec := l.PlanFine(&obs)
	// Need 0.3, base 0.2 → only 0.1 of discharge is useful; pushing the
	// full 0.5 would be wasted energy.
	if math.Abs(dec.Discharge-0.1) > 1e-12 || dec.Grt != 0 {
		t.Errorf("dec = %+v, want discharge=0.1 grt=0", dec)
	}
}

func TestLyapunovChargesFromSpareGridCapacity(t *testing.T) {
	l := newTestLyapunov(t)
	obs := sim.FineObs{
		PriceRT: 0.1, Battery: 0.1, // charge regime (0.1 < 0.32)
		DemandDS: 0.6, LongTermDue: 0.2, SdtMax: 1.0,
		RTHeadroom: 2.0, MaxCharge: 0.5, MaxDischarge: 0.5,
	}
	dec := l.PlanFine(&obs)
	// Deficit 0.4 from the grid, plus 0.5 more grid draw to fill the
	// battery at the cheap price.
	if math.Abs(dec.Charge-0.5) > 1e-12 {
		t.Errorf("Charge = %g, want 0.5", dec.Charge)
	}
	if math.Abs(dec.Grt-0.9) > 1e-12 {
		t.Errorf("Grt = %g, want 0.9 (0.4 demand + 0.5 charge)", dec.Grt)
	}
	if dec.Discharge != 0 {
		t.Errorf("Discharge = %g, want 0", dec.Discharge)
	}
}

func TestLyapunovAbsorbsSurplusInEveryRegime(t *testing.T) {
	l := newTestLyapunov(t)
	for _, tc := range []struct {
		name    string
		battery float64
		price   float64
	}{
		{"discharge regime", 0.8, 100},
		{"charge regime", 0.1, 0.1},
		{"deadband", 0.1, 0.40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			obs := sim.FineObs{
				PriceRT: tc.price, Battery: tc.battery,
				DemandDS: 0.2, LongTermDue: 0.5, Renewable: 0.4,
				SdtMax: 1.0, MaxCharge: 0.5, MaxDischarge: 0.5,
			}
			dec := l.PlanFine(&obs)
			// Surplus 0.7 capped at MaxCharge 0.5; free energy is stored,
			// never wasted, whatever the price says.
			if math.Abs(dec.Charge-0.5) > 1e-12 {
				t.Errorf("Charge = %g, want 0.5", dec.Charge)
			}
			if dec.Discharge != 0 || dec.Grt != 0 {
				t.Errorf("dec = %+v, want no grid, no discharge", dec)
			}
		})
	}
}

func TestLyapunovThresholdsDisjoint(t *testing.T) {
	// Sweep (level, price): the charge and discharge conditions never
	// fire together — the drift coefficients guarantee disjointness for
	// ηc ≤ 1 ≤ ηd and non-negative prices.
	l := newTestLyapunov(t)
	for b := 0.0; b <= 1.0; b += 0.05 {
		for p := 0.0; p <= 150; p += 7.5 {
			obs := sim.FineObs{
				PriceRT: p, Battery: b,
				DemandDS: 0.6, LongTermDue: 0.3, SdtMax: 1.0,
				RTHeadroom: 2.0, MaxCharge: 0.5, MaxDischarge: 0.5,
			}
			dec := l.PlanFine(&obs)
			if dec.Charge > 1e-12 && dec.Discharge > 1e-12 {
				t.Fatalf("b=%g p=%g: charge %g and discharge %g both fired",
					b, p, dec.Charge, dec.Discharge)
			}
		}
	}
}

func TestLyapunovEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	l, err := NewLyapunov(cfg, 0, 0) // scale-aware defaults
	if err != nil {
		t.Fatal(err)
	}
	set := testTraces(t, 7)
	rep, err := sim.Run(simConfig(cfg), set, l)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UnservedMWh > 1e-6 {
		t.Errorf("unserved = %g, want 0", rep.UnservedMWh)
	}
	if rep.TotalCostUSD <= 0 || math.IsNaN(rep.TotalCostUSD) {
		t.Errorf("total cost = %g", rep.TotalCostUSD)
	}
	if rep.BatteryMinMWh < cfg.Battery.MinLevelMWh-1e-9 ||
		rep.BatteryMaxMWh > cfg.Battery.CapacityMWh+1e-9 {
		t.Errorf("battery excursion [%g, %g] outside [%g, %g]",
			rep.BatteryMinMWh, rep.BatteryMaxMWh,
			cfg.Battery.MinLevelMWh, cfg.Battery.CapacityMWh)
	}
	// The thresholds must actually engage the battery — the arm is not
	// a rebadged Impatient.
	if rep.BatteryOps == 0 {
		t.Error("battery never moved; thresholds inert")
	}
}

func TestLyapunovSnapshotRoundTrip(t *testing.T) {
	l := newTestLyapunov(t)
	for i := 0; i < 5; i++ {
		l.PlanFine(&sim.FineObs{
			DemandDS: 0.5 + 0.1*float64(i), DemandDT: 0.2, Renewable: 0.1,
			Battery: 0.5, SdtMax: 1.0,
		})
	}
	blob, err := l.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	restored := newTestLyapunov(t)
	if err := restored.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	obs := sim.CoarseObs{Slots: 24, DemandDS: 1, DemandDT: 1, Renewable: 0}
	if got, want := restored.PlanCoarse(obs), l.PlanCoarse(obs); got != want {
		t.Errorf("restored PlanCoarse = %g, original = %g", got, want)
	}
	if err := restored.RestoreState([]byte("not json")); err == nil {
		t.Error("garbage state accepted")
	}
}

func TestNewLyapunovValidation(t *testing.T) {
	cfg := lyapunovTestConfig()
	if _, err := NewLyapunov(cfg, 1, 1.5); err == nil {
		t.Error("thetaFrac > 1 accepted")
	}
	if _, err := NewLyapunov(cfg, math.NaN(), 0.5); err == nil {
		t.Error("NaN V accepted")
	}
	bad := cfg
	bad.T = 0
	if _, err := NewLyapunov(bad, 1, 0.5); err == nil {
		t.Error("invalid config accepted")
	}
	l, err := NewLyapunov(cfg, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	span := cfg.Battery.CapacityMWh - cfg.Battery.MinLevelMWh
	if want := span / cfg.PmaxUSD; l.v != want {
		t.Errorf("default V = %g, want %g", l.v, want)
	}
	if want := cfg.Battery.MinLevelMWh + 0.6*span; l.theta != want {
		t.Errorf("default theta = %g, want %g", l.theta, want)
	}
	if l.Name() != "Lyapunov" || l.CoarseSlots() != cfg.T {
		t.Errorf("identity: name=%q coarseSlots=%d", l.Name(), l.CoarseSlots())
	}
}

// randomLyapunovTraces mirrors the core fuzz harness's adversarial trace
// builder: demand/renewable/prices drawn independently per slot with
// spikes and flat stretches — no stationarity for the thresholds to lean
// on.
func randomLyapunovTraces(r *rand.Rand, slots int, pgrid, pmax float64) *trace.Set {
	mk := func(name string) *trace.Series { return trace.New(name, "MWh", slots) }
	set := &trace.Set{
		DemandDS:  mk("demand_ds"),
		DemandDT:  mk("demand_dt"),
		Renewable: mk("renewable"),
		PriceLT:   mk("price_lt"),
		PriceRT:   mk("price_rt"),
	}
	for i := 0; i < slots; i++ {
		switch r.Intn(5) {
		case 0:
			set.DemandDS.Values[i] = r.Float64() * 0.3
		case 1:
			set.DemandDS.Values[i] = pgrid * (0.8 + 0.2*r.Float64())
		default:
			set.DemandDS.Values[i] = r.Float64() * pgrid * 0.7
		}
		set.DemandDT.Values[i] = r.Float64() * pgrid / 2
		set.Renewable.Values[i] = r.Float64() * r.Float64() * pgrid
		set.PriceLT.Values[i] = 1 + r.Float64()*(pmax*0.5)
		set.PriceRT.Values[i] = 1 + r.Float64()*(pmax-1)
	}
	return set
}

// TestFuzzLyapunovInvariants extends the controller fuzz coverage to the
// fifth policy arm: random V/θ over adversarial traces, with an
// operation budget in part of the draws. The plant physics must hold —
// battery inside [Bmin, Bmax], no unserved delay-sensitive energy (dds ≤
// Pgrid by construction), finite non-negative cost, and BatteryOps never
// exceeding MaxOps.
func TestFuzzLyapunovInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(76))
	f := func() bool {
		cfg := DefaultConfig()
		if r.Intn(4) == 0 {
			cfg.Battery.MaxOps = 5 + r.Intn(30)
		}
		v := math.Pow(10, -3+4*r.Float64()) // 1e-3 .. 1e1
		theta := 0.05 + 0.9*r.Float64()
		l, err := NewLyapunov(cfg, v, theta)
		if err != nil {
			t.Logf("NewLyapunov: %v", err)
			return false
		}
		slots := 48 + r.Intn(120)
		set := randomLyapunovTraces(r, slots, cfg.PgridMWh, cfg.PmaxUSD)
		sc := simConfig(cfg)
		rep, err := sim.Run(sc, set, l)
		if err != nil {
			t.Logf("Run: %v (V=%g theta=%g)", err, v, theta)
			return false
		}
		if rep.BatteryMinMWh < cfg.Battery.MinLevelMWh-1e-9 ||
			rep.BatteryMaxMWh > cfg.Battery.CapacityMWh+1e-9 {
			t.Logf("battery bounds violated: [%g, %g]", rep.BatteryMinMWh, rep.BatteryMaxMWh)
			return false
		}
		if rep.UnservedMWh > 1e-6 {
			t.Logf("unserved %g with dds <= Pgrid", rep.UnservedMWh)
			return false
		}
		if math.IsNaN(rep.TotalCostUSD) || math.IsInf(rep.TotalCostUSD, 0) || rep.TotalCostUSD < 0 {
			t.Logf("cost = %g", rep.TotalCostUSD)
			return false
		}
		if cfg.Battery.MaxOps > 0 && rep.BatteryOps > cfg.Battery.MaxOps {
			t.Logf("ops %d exceed budget %d", rep.BatteryOps, cfg.Battery.MaxOps)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
