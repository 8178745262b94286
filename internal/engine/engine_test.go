package engine

import (
	"math"
	"reflect"
	"testing"

	"github.com/smartdpss/smartdpss/internal/trace"
)

// TestGenerateTracesValidation: every invalid TraceConfig axis must be
// rejected with an error naming it, not a bad trace set, by the one
// screen before any generator runs. A negative wind size is an error,
// not "no wind".
func TestGenerateTracesValidation(t *testing.T) {
	const (
		days      = "smartdpss: Days must be positive"
		peak      = "smartdpss: PeakMW is not finite"
		sun       = "smartdpss: SolarCapacityMW is not finite"
		gust      = "smartdpss: WindCapacityMW is not finite"
		priceText = "smartdpss: PriceScale must be finite and non-negative"
		temp      = "smartdpss: Cooling.MeanTempC is not finite"
	)
	// NaN makes every ordered comparison false: without explicit
	// finite checks these poisoned configs sailed through the guards.
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		mut  func(*TraceConfig)
		want string
	}{
		{"zero days", func(tc *TraceConfig) { tc.Days = 0 }, days},
		{"negative days", func(tc *TraceConfig) { tc.Days = -3 }, days},
		{"NaN peak", func(tc *TraceConfig) { tc.PeakMW = nan }, peak},
		{"+Inf peak", func(tc *TraceConfig) { tc.PeakMW = inf }, peak},
		{"-Inf peak", func(tc *TraceConfig) { tc.PeakMW = -inf }, peak},
		{"negative peak", func(tc *TraceConfig) { tc.PeakMW = -1 }, "smartdpss: PeakMW must be positive"},
		{"zero peak", func(tc *TraceConfig) { tc.PeakMW = 0 }, "smartdpss: PeakMW must be positive"},
		{"NaN solar", func(tc *TraceConfig) { tc.SolarCapacityMW = nan }, sun},
		{"+Inf solar", func(tc *TraceConfig) { tc.SolarCapacityMW = inf }, sun},
		{"-Inf solar", func(tc *TraceConfig) { tc.SolarCapacityMW = -inf }, sun},
		{"negative solar", func(tc *TraceConfig) { tc.SolarCapacityMW = -1 }, "smartdpss: SolarCapacityMW must not be negative"},
		{"NaN wind", func(tc *TraceConfig) { tc.WindCapacityMW = nan }, gust},
		{"+Inf wind", func(tc *TraceConfig) { tc.WindCapacityMW = inf }, gust},
		{"-Inf wind", func(tc *TraceConfig) { tc.WindCapacityMW = -inf }, gust},
		{"negative wind", func(tc *TraceConfig) { tc.WindCapacityMW = -1 }, "smartdpss: WindCapacityMW must not be negative"},
		{"NaN cooling temperature", func(tc *TraceConfig) { tc.Cooling = &CoolingConfig{MeanTempC: nan} }, temp},
		{"Inf cooling temperature", func(tc *TraceConfig) { tc.Cooling = &CoolingConfig{MeanTempC: -inf} }, temp},
		{"negative price scale", func(tc *TraceConfig) { tc.PriceScale = -0.5 }, priceText},
		{"NaN price scale", func(tc *TraceConfig) { tc.PriceScale = nan }, priceText},
		{"Inf price scale", func(tc *TraceConfig) { tc.PriceScale = inf }, priceText},
		// The screen checks in order, the cooling temperature last.
		{"NaN peak before workload", func(tc *TraceConfig) {
			tc.PeakMW, tc.Cooling = nan, &CoolingConfig{MeanTempC: nan}
		}, peak},
		{"price scale before workload", func(tc *TraceConfig) {
			tc.PriceScale, tc.Cooling = -1, &CoolingConfig{MeanTempC: inf}
		}, priceText},
		{"signs before price scale", func(tc *TraceConfig) { tc.WindCapacityMW, tc.PriceScale = -1, nan }, "smartdpss: WindCapacityMW must not be negative"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tc := DefaultTraceConfig()
			tc.Days = 2
			c.mut(&tc)
			if _, err := GenerateTraces(tc); err == nil || err.Error() != c.want {
				t.Fatalf("GenerateTraces(%+v) = %v, want %q", tc, err, c.want)
			}
		})
	}
}

// TestCoolingClipsAtTheTracesPeak: cooled demand is clipped at the grid
// cap of the traces' own PeakMW, so cooling a 3 MW site adds overhead
// in every slot instead of cutting its peaks to 2 MW.
func TestCoolingClipsAtTheTracesPeak(t *testing.T) {
	tc := DefaultTraceConfig()
	tc.Days, tc.PeakMW = 2, 3
	plain, err := GenerateTraces(tc)
	if err != nil {
		t.Fatal(err)
	}
	tc.Cooling = &CoolingConfig{MeanTempC: 26}
	cooled, err := GenerateTraces(tc)
	if err != nil {
		t.Fatal(err)
	}
	before, after := plain.View().TotalDemand(), cooled.View().TotalDemand()
	for i, v := range after.Values {
		if v < before.Values[i] {
			t.Errorf("slot %d: cooled demand %g below uncooled %g", i, v, before.Values[i])
		}
	}
	if peak := after.Max(); peak <= 2 || peak > 3 {
		t.Errorf("cooled peak %g MWh, want above 2 and at most the 3 MWh cap", peak)
	}
	if plain.AveragePUE() != 1 || cooled.AveragePUE() <= 1.12 {
		t.Errorf("average PUE %g uncooled, %g cooled; want 1 and above the base PUE",
			plain.AveragePUE(), cooled.AveragePUE())
	}
}

// TestTraceErrorsNameTheirLayerOnce: a generator's error already starts
// with the generator's name, so the engine prefixes only "smartdpss: ".
// The one generator error left is solar's envelope mismatch.
func TestTraceErrorsNameTheirLayerOnce(t *testing.T) {
	tc := DefaultTraceConfig()
	tc.Days = 2
	env, err := SolarEnvelope(tc)
	if err != nil {
		t.Fatal(err)
	}
	tc.Days = 3
	const want = "smartdpss: solar: envelope computed for another horizon"
	if _, err := GenerateTracesWith(tc, env); err == nil || err.Error() != want {
		t.Errorf("GenerateTracesWith over another horizon's envelope = %v, want %q", err, want)
	}
	tc.SolarCapacityMW = -1
	if _, err := SolarEnvelope(tc); err == nil || err.Error() != "smartdpss: SolarCapacityMW must not be negative" {
		t.Errorf("SolarEnvelope(%+v) = %v, want the screen's error", tc, err)
	}
}

// TestUnitSpecValidation: every poisoned UnitSpec field must be rejected
// by Simulate before it reaches the per-slot physics.
func TestUnitSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*UnitSpec)
	}{
		{"NaN capacity", func(u *UnitSpec) { u.CapacityMW = math.NaN() }},
		{"Inf capacity", func(u *UnitSpec) { u.CapacityMW = math.Inf(1) }},
		{"negative capacity", func(u *UnitSpec) { u.CapacityMW = -1 }},
		{"NaN min load", func(u *UnitSpec) { u.MinLoadFrac = math.NaN() }},
		{"min load above 1", func(u *UnitSpec) { u.MinLoadFrac = 1.5 }},
		{"NaN fuel", func(u *UnitSpec) { u.FuelUSDPerMWh = math.NaN() }},
		{"negative fuel", func(u *UnitSpec) { u.FuelUSDPerMWh = -20 }},
		{"Inf fuel quad", func(u *UnitSpec) { u.FuelQuadUSD = math.Inf(1) }},
		{"negative startup", func(u *UnitSpec) { u.StartupUSD = -5 }},
		{"negative lag", func(u *UnitSpec) { u.StartupLagSlots = -1 }},
		{"NaN co2", func(u *UnitSpec) { u.CO2KgPerMWh = math.NaN() }},
	}
	tc := DefaultTraceConfig()
	tc.Days = 1
	traces, err := GenerateTraces(tc)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			u := UnitSpec{CapacityMW: 0.5, MinLoadFrac: 0.2, FuelUSDPerMWh: 40}
			c.mut(&u)
			if err := u.Validate(); err == nil {
				t.Fatalf("poisoned spec accepted by Validate: %+v", u)
			}
			opts := DefaultOptions()
			opts.Fleet = []UnitSpec{u}
			if _, err := Simulate(PolicySmartDPSS, opts, traces); err == nil {
				t.Fatalf("Simulate accepted poisoned fleet unit: %+v", u)
			}
		})
	}
	// The untouched baseline spec must stay valid.
	if err := (UnitSpec{CapacityMW: 0.5, MinLoadFrac: 0.2, FuelUSDPerMWh: 40}).Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestPriceScaleLeavesFuelUntouched pins the PriceScale contract (see
// TraceConfig and doc.go): it multiplies the two GRID price series and
// nothing else — in particular not a generation unit's fuel bill, which
// is always the unit's configured curve.
func TestPriceScaleLeavesFuelUntouched(t *testing.T) {
	base := DefaultTraceConfig()
	base.Days = 2
	plain, err := GenerateTraces(base)
	if err != nil {
		t.Fatal(err)
	}
	scaled := base
	scaled.PriceScale = 2.0
	doubled, err := GenerateTraces(scaled)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.set.PriceLT.Values {
		if doubled.set.PriceLT.Values[i] != 2*plain.set.PriceLT.Values[i] ||
			doubled.set.PriceRT.Values[i] != 2*plain.set.PriceRT.Values[i] {
			t.Fatalf("slot %d: grid prices not scaled by exactly 2", i)
		}
		if doubled.set.DemandDS.Values[i] != plain.set.DemandDS.Values[i] {
			t.Fatalf("slot %d: PriceScale touched demand", i)
		}
	}
	// End to end: a unit's fuel bill per MWh is the configured curve in
	// both worlds — only the grid side moved.
	for _, tr := range []*Traces{plain, doubled} {
		o := DefaultOptions()
		o.PmaxUSD = 400 // keep scaled price spikes under the cap
		o.Fleet = []UnitSpec{{CapacityMW: 0.5, FuelUSDPerMWh: 20}}
		rep, err := Simulate(PolicySmartDPSS, o, tr)
		if err != nil {
			t.Fatal(err)
		}
		if rep.GenEnergyMWh <= 0 {
			t.Fatal("cheap unit never ran")
		}
		if got := rep.GenFuelUSD / rep.GenEnergyMWh; math.Abs(got-20) > 1e-9 {
			t.Fatalf("fuel bill %g USD/MWh, want the configured 20", got)
		}
	}
}

// TestOptionsCoreParamsPlumbing: the Options→core.Params translation
// must turn datacenter-level settings into per-slot quantities: over an
// hourly slot, h = 1, each power cap in MW is an energy cap in MWh.
func TestOptionsCoreParamsPlumbing(t *testing.T) {
	o := DefaultOptions()
	o.PeakMW = 4.0
	o.Fleet = []UnitSpec{{CapacityMW: 1.5, MinLoadFrac: 0.5, FuelUSDPerMWh: 60}}
	p := o.coreParams()

	const h = 1.0
	if p.PgridMWh != o.PeakMW*h {
		t.Errorf("PgridMWh = %g, want %g", p.PgridMWh, o.PeakMW*h)
	}
	if p.SmaxMWh != 2*o.PeakMW*h {
		t.Errorf("SmaxMWh = %g, want %g", p.SmaxMWh, 2*o.PeakMW*h)
	}
	if p.SdtMaxMWh != o.PeakMW/2*h || p.DdtMaxMWh != o.PeakMW/2*h {
		t.Errorf("Sdtmax, Ddtmax = %g, %g, want %g", p.SdtMaxMWh, p.DdtMaxMWh, o.PeakMW/2*h)
	}
	if p.Battery.MaxChargeMWh != 0.5*h || p.Battery.MaxDischargeMWh != 0.5*h {
		t.Errorf("Bcmax, Bdmax = %g, %g, want %g", p.Battery.MaxChargeMWh, p.Battery.MaxDischargeMWh, 0.5*h)
	}
	if len(p.Fleet) != 1 {
		t.Fatalf("fleet has %d units, want 1", len(p.Fleet))
	}
	g := p.Fleet[0]
	if g.CapacityMWh != 1.5*h || g.MinLoadMWh != 0.5*1.5*h {
		t.Errorf("generator window = (%g, %g), want (%g, %g)", g.MinLoadMWh, g.CapacityMWh, 0.5*1.5*h, 1.5*h)
	}
	if g.FuelUSDPerMWh != 60 {
		t.Errorf("fuel = %g, want 60", g.FuelUSDPerMWh)
	}
}

// TestOptionsFleetPlumbing: Fleet specs must translate per unit, a
// zero-capacity unit must be dropped, the fuel default must apply, and
// a carbon price must fold each unit's intensity into its marginal
// price.
func TestOptionsFleetPlumbing(t *testing.T) {
	o := DefaultOptions()
	o.Fleet = []UnitSpec{
		{CapacityMW: 0.5, MinLoadFrac: 0.2, FuelUSDPerMWh: 45, CO2KgPerMWh: 600},
		{MinLoadFrac: 0.9, FuelUSDPerMWh: 1, StartupUSD: 1e6}, // zero capacity: dropped
		{CapacityMW: 0.25, StartupUSD: 10},                    // fuel 0 → 85 default
	}
	o.CommitWindow = 12
	o.CarbonUSDPerTon = 50
	p := o.coreParams()

	if p.CommitWindow != 12 {
		t.Errorf("CommitWindow = %d, want 12", p.CommitWindow)
	}
	if len(p.Fleet) != 2 {
		t.Fatalf("fleet has %d units, want 2", len(p.Fleet))
	}
	// Carbon: 600 kg/MWh × $50/t = $30/MWh on top of the $45 fuel.
	if got, want := p.Fleet[0].FuelUSDPerMWh, 45+600*50.0/1000; got != want {
		t.Errorf("unit 0 fuel = %g, want %g (carbon folded in)", got, want)
	}
	if p.Fleet[0].CO2KgPerMWh != 600 {
		t.Errorf("unit 0 CO2 intensity lost: %g", p.Fleet[0].CO2KgPerMWh)
	}
	if got, want := p.Fleet[1].FuelUSDPerMWh, 85.0; got != want {
		t.Errorf("unit 1 fuel = %g, want the %g default", got, want)
	}
	if p.Fleet[0].CapacityMWh != 0.5 || p.Fleet[0].MinLoadMWh != 0.2*0.5 {
		t.Errorf("unit 0 window = (%g, %g)", p.Fleet[0].MinLoadMWh, p.Fleet[0].CapacityMWh)
	}
	// Every layer must plan against, and bill, the same plant.
	if sc := o.simConfig(); !reflect.DeepEqual(sc.Plant, p.Plant) {
		t.Errorf("simConfig plant %+v differs from coreParams plant %+v", sc.Plant, p.Plant)
	}
	if bc := o.baselineConfig(); !reflect.DeepEqual(bc.Plant, p.Plant) {
		t.Errorf("baselineConfig plant %+v differs from coreParams plant %+v", bc.Plant, p.Plant)
	}
}

// TestSimulateRejectsBadFleetOptions: invalid fleet options must error
// out of Simulate, not silently misconfigure.
func TestSimulateRejectsBadFleetOptions(t *testing.T) {
	tc := DefaultTraceConfig()
	tc.Days = 1
	traces, err := GenerateTraces(tc)
	if err != nil {
		t.Fatal(err)
	}
	carbon := DefaultOptions()
	carbon.CarbonUSDPerTon = -1
	if _, err := Simulate(PolicySmartDPSS, carbon, traces); err == nil {
		t.Error("negative carbon price accepted")
	}
	window := DefaultOptions()
	window.CommitWindow = -2
	if _, err := Simulate(PolicySmartDPSS, window, traces); err == nil {
		t.Error("negative CommitWindow accepted")
	}
}

// GenerateTracesWith over a shared envelope gives GenerateTraces' bits
// for every configuration that agrees on Days, and refuses an envelope
// of any other.
func TestGenerateTracesWithSharedEnvelope(t *testing.T) {
	base := DefaultTraceConfig()
	base.Days = 3
	env, err := SolarEnvelope(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []TraceConfig{
		base,
		{Days: 3, Seed: 9, SolarCapacityMW: 1, WindCapacityMW: 2, PeakMW: 3, PriceScale: 1.4},
		{Days: 3, Seed: 2, SolarCapacityMW: 5, PeakMW: 2},
	} {
		want, err := GenerateTraces(tc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := GenerateTracesWith(tc, env)
		if err != nil {
			t.Fatal(err)
		}
		g, w := got.View(), want.View()
		gs := [...]*trace.Series{g.DemandDS, g.DemandDT, g.Renewable, g.PriceLT, g.PriceRT}
		ws := [...]*trace.Series{w.DemandDS, w.DemandDT, w.Renewable, w.PriceLT, w.PriceRT}
		for k := range gs {
			if gs[k].Name != ws[k].Name || len(gs[k].Values) != len(ws[k].Values) {
				t.Fatalf("%+v: series %d shape differs", tc, k)
			}
			for i, v := range gs[k].Values {
				if math.Float64bits(v) != math.Float64bits(ws[k].Values[i]) {
					t.Fatalf("%+v: %s[%d] = %v over the shared envelope, %v alone", tc, gs[k].Name, i, v, ws[k].Values[i])
				}
			}
		}
		if got.valid != want.valid {
			t.Fatalf("%+v: validation record differs", tc)
		}
	}
	other := base
	other.Days = 4
	if _, err := GenerateTracesWith(other, env); err == nil {
		t.Fatalf("%+v: envelope of another configuration accepted", other)
	}
}

// WithDemandDS checks the routed series alone: a poisoned sample in one
// of the four shared series goes unseen, since those passed validation
// when generated, while a poisoned routed sample is refused.
func TestWithDemandDSChecksOnlyTheRoutedSeries(t *testing.T) {
	tr := dayTraces(t, 1)
	tr.View().PriceRT.Values[3] = math.NaN()
	routed := append([]float64(nil), tr.View().DemandDS.Values...)
	out, err := WithDemandDS(tr, routed)
	if err != nil {
		t.Fatal(err)
	}
	if !out.valid || &out.View().DemandDS.Values[0] != &routed[0] {
		t.Fatal("routed traces must keep the validation record and the routed samples")
	}
	if _, err := NewReplaySession(PolicySmartDPSS, DefaultOptions(), out); err != nil {
		t.Fatalf("a session revalidated the shared series: %v", err)
	}
	routed[7] = math.Inf(1)
	if _, err := WithDemandDS(tr, routed); err == nil {
		t.Fatal("non-finite routed demand accepted")
	}
}
