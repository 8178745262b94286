package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/smartdpss/smartdpss/internal/generator"
	"github.com/smartdpss/smartdpss/internal/sim"
	"github.com/smartdpss/smartdpss/internal/trace"
)

// randomTraceSet builds an adversarial trace set: demand/renewable/prices
// drawn independently per slot with spikes, gaps and flat stretches — the
// "arbitrary demand" regime the paper targets (no stationarity at all).
func randomTraceSet(r *rand.Rand, slots int, pgrid, pmax float64) *trace.Set {
	mk := func(name string) *trace.Series { return trace.New(name, "MWh", 60, slots) }
	set := &trace.Set{
		DemandDS:  mk("demand_ds"),
		DemandDT:  mk("demand_dt"),
		Renewable: mk("renewable"),
		PriceLT:   mk("price_lt"),
		PriceRT:   mk("price_rt"),
	}
	for i := 0; i < slots; i++ {
		switch r.Intn(5) {
		case 0: // quiet slot
			set.DemandDS.Values[i] = r.Float64() * 0.3
		case 1: // spike
			set.DemandDS.Values[i] = pgrid * (0.8 + 0.2*r.Float64())
		default:
			set.DemandDS.Values[i] = r.Float64() * pgrid * 0.7
		}
		set.DemandDT.Values[i] = r.Float64() * pgrid / 2
		set.Renewable.Values[i] = r.Float64() * r.Float64() * pgrid // skewed low
		set.PriceLT.Values[i] = 1 + r.Float64()*(pmax*0.5)
		set.PriceRT.Values[i] = 1 + r.Float64()*(pmax-1)
	}
	return set
}

// TestFuzzControllerInvariants drives SmartDPSS over fully random
// (non-stationary, spiky) traces with random V/ε/T and checks the physical
// invariants the engine and Theorem 2 guarantee:
//   - the run completes without controller errors,
//   - the battery never leaves [Bmin, Bmax],
//   - delay-sensitive demand is always served (grid + rescue suffice since
//     dds ≤ Pgrid by construction),
//   - total cost is finite and non-negative.
func TestFuzzControllerInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	f := func() bool {
		p := DefaultParams()
		p.V = 0.02 + r.Float64()*5
		p.Epsilon = 0.1 + r.Float64()*2
		p.T = []int{3, 6, 12, 24, 48}[r.Intn(5)]
		if r.Intn(3) == 0 {
			p.DisableLongTerm = true
		}
		if r.Intn(4) == 0 {
			p.Battery.MaxOps = 5 + r.Intn(30)
		}

		slots := 48 + r.Intn(120)
		set := randomTraceSet(r, slots, p.PgridMWh, p.PmaxUSD)

		ctrl, err := New(p)
		if err != nil {
			t.Logf("New: %v", err)
			return false
		}
		rep, err := sim.Run(simConfig(p), set, ctrl)
		if err != nil {
			t.Logf("Run: %v (V=%g eps=%g T=%d)", err, p.V, p.Epsilon, p.T)
			return false
		}
		if rep.BatteryMinMWh < p.Battery.MinLevelMWh-1e-9 ||
			rep.BatteryMaxMWh > p.Battery.CapacityMWh+1e-9 {
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
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// randomUnitSpec draws one admissible fleet unit: capacity, minimum
// stable load, ramp, convex fuel curve, startup cost and lag.
func randomUnitSpec(r *rand.Rand) generator.Params {
	cap := 0.05 + r.Float64()*0.95
	p := generator.Params{
		CapacityMWh:   cap,
		MinLoadMWh:    r.Float64() * 0.6 * cap,
		FuelUSDPerMWh: 5 + r.Float64()*120,
		CO2KgPerMWh:   r.Float64() * 1000,
	}
	if r.Intn(2) == 0 {
		p.RampMWh = 0.1 + r.Float64()*cap
	}
	if r.Intn(2) == 0 {
		p.FuelQuadUSD = r.Float64() * 10
	}
	if r.Intn(2) == 0 {
		p.StartupUSD = r.Float64() * 50
	}
	if r.Intn(3) == 0 {
		p.StartupLagSlots = 1 + r.Intn(3)
	}
	return p
}

// TestFuzzFleetUnitDispatchInvariants drives single units through
// random request/fuel-scale sequences and checks the physics every
// controller relies on: output is {0} ∪ [minload, window max] within
// the nameplate, the up-ramp bound holds, fuel cost is the scaled curve
// (never negative), emissions track energy, and every cold start is
// billed exactly once.
func TestFuzzFleetUnitDispatchInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	f := func() bool {
		p := randomUnitSpec(r)
		g, err := generator.New(p)
		if err != nil {
			t.Logf("New(%+v): %v", p, err)
			return false
		}
		prev := 0.0
		running := false
		starts := 0
		for slot := 0; slot < 60; slot++ {
			g.Tick()
			min, max := g.Window()
			request := r.Float64() * p.CapacityMWh * 1.5
			scale := 0.25 + r.Float64()*2
			wasRunning, wasStarting := g.Running(), g.Starting()
			startsBefore := g.Starts()
			out := g.DispatchAt(request, scale)

			d := out.DeliveredMWh
			if d != 0 && (d < min-1e-9 || d > max+1e-9) {
				t.Logf("slot %d: delivered %g outside {0} ∪ [%g, %g]", slot, d, min, max)
				return false
			}
			if d > p.CapacityMWh+1e-9 {
				t.Logf("slot %d: delivered %g above nameplate %g", slot, d, p.CapacityMWh)
				return false
			}
			if p.RampMWh > 0 && wasRunning && running && d > prev+p.RampMWh+1e-9 {
				t.Logf("slot %d: ramp violated: %g -> %g (limit %g)", slot, prev, d, p.RampMWh)
				return false
			}
			if want := scale * p.FuelCost(d); out.FuelUSD < 0 || math.Abs(out.FuelUSD-want) > 1e-9 {
				t.Logf("slot %d: fuel %g, want %g", slot, out.FuelUSD, want)
				return false
			}
			if want := p.CO2KgPerMWh * d; math.Abs(out.CO2Kg-want) > 1e-9 {
				t.Logf("slot %d: co2 %g, want %g", slot, out.CO2Kg, want)
				return false
			}
			if g.Starts() > startsBefore {
				if wasRunning || wasStarting {
					t.Logf("slot %d: cold start on a warm unit", slot)
					return false
				}
				if math.Abs(out.StartupUSD-p.StartupUSD) > 1e-12 {
					t.Logf("slot %d: start billed %g, want %g", slot, out.StartupUSD, p.StartupUSD)
					return false
				}
				starts++
			} else if out.StartupUSD != 0 {
				t.Logf("slot %d: startup billed without a start", slot)
				return false
			}
			prev, running = d, g.Running() && d > 0
		}
		if g.Starts() != starts || math.Abs(g.StartupCostTotal()-float64(starts)*p.StartupUSD) > 1e-9 {
			t.Logf("starts %d billed %g, observed %d", g.Starts(), g.StartupCostTotal(), starts)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzFleetControllerInvariants drives SmartDPSS with random
// heterogeneous fleets (random unit specs, commitment windows, fuel
// traces) over random spiky traces and checks the run-level invariants:
// clean execution, served delay-sensitive demand, finite non-negative
// cost, battery bounds, and per-unit accounting that stays within
// nameplate physics.
func TestFuzzFleetControllerInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(74))
	f := func() bool {
		p := DefaultParams()
		p.V = 0.1 + r.Float64()*3
		p.T = []int{6, 12, 24}[r.Intn(3)]
		p.CommitWindow = []int{0, 1, 4, 12, 48}[r.Intn(5)]
		n := 1 + r.Intn(4)
		p.Fleet = make([]generator.Params, n)
		for i := range p.Fleet {
			p.Fleet[i] = randomUnitSpec(r)
		}

		slots := 48 + r.Intn(96)
		set := randomTraceSet(r, slots, p.PgridMWh, p.PmaxUSD)
		if r.Intn(2) == 0 {
			fs := trace.New("fuel_scale", "x", 60, slots)
			for i := range fs.Values {
				fs.Values[i] = 0.25 + r.Float64()*2
			}
			set.FuelScale = fs
		}

		ctrl, err := New(p)
		if err != nil {
			t.Logf("New: %v", err)
			return false
		}
		rep, err := sim.Run(simConfig(p), set, ctrl)
		if err != nil {
			t.Logf("Run: %v (W=%d n=%d)", err, p.CommitWindow, n)
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
		if rep.GenFuelUSD < 0 || rep.GenStartupUSD < 0 || rep.GenCO2Kg < 0 {
			t.Logf("negative fleet accounting: %+v", rep)
			return false
		}
		if len(rep.GenUnits) != n {
			t.Logf("per-unit breakdown has %d entries, want %d", len(rep.GenUnits), n)
			return false
		}
		totalGen, totalCO2 := 0.0, 0.0
		for i, u := range rep.GenUnits {
			if u.EnergyMWh < 0 || u.EnergyMWh > p.Fleet[i].CapacityMWh*float64(slots)+1e-6 {
				t.Logf("unit %d energy %g outside [0, %g]", i, u.EnergyMWh, p.Fleet[i].CapacityMWh*float64(slots))
				return false
			}
			if u.FuelUSD < 0 || u.CO2Kg < 0 {
				t.Logf("unit %d negative accounting: %+v", i, u)
				return false
			}
			totalGen += u.EnergyMWh
			totalCO2 += u.CO2Kg
		}
		if math.Abs(totalGen-rep.GenEnergyMWh) > 1e-6 || math.Abs(totalCO2-rep.GenCO2Kg) > 1e-6 {
			t.Logf("fleet totals do not sum: %g vs %g, %g vs %g",
				totalGen, rep.GenEnergyMWh, totalCO2, rep.GenCO2Kg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzUnitSpecErrorPath corrupts one random field of an otherwise
// admissible unit with NaN, ±Inf or a negative value and asserts the
// configuration is rejected at validation time — never silently carried
// into dispatch and fuel accounting. (NaN makes every comparison false,
// so before the explicit finite checks a NaN field sailed through both
// the generator guards and the fleet wiring.)
func TestFuzzUnitSpecErrorPath(t *testing.T) {
	r := rand.New(rand.NewSource(75))
	poisons := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5, -1e9}
	corrupt := []func(*generator.Params, float64){
		func(p *generator.Params, v float64) { p.CapacityMWh = v },
		func(p *generator.Params, v float64) { p.MinLoadMWh = v },
		func(p *generator.Params, v float64) { p.RampMWh = v },
		func(p *generator.Params, v float64) { p.FuelUSDPerMWh = v },
		func(p *generator.Params, v float64) { p.FuelQuadUSD = v },
		func(p *generator.Params, v float64) { p.StartupUSD = v },
		func(p *generator.Params, v float64) { p.CO2KgPerMWh = v },
	}
	f := func() bool {
		spec := randomUnitSpec(r)
		poison := poisons[r.Intn(len(poisons))]
		corrupt[r.Intn(len(corrupt))](&spec, poison)
		if err := spec.Validate(); err == nil {
			t.Logf("corrupted spec accepted: %+v", spec)
			return false
		}
		// The same spec inside a fleet must fail controller construction.
		p := DefaultParams()
		p.Fleet = []generator.Params{randomUnitSpec(r), spec}
		if _, err := New(p); err == nil {
			t.Logf("controller accepted corrupted fleet unit: %+v", spec)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzExtremeTraces pushes degenerate inputs: all-zero demand,
// all-zero renewable, max-price stretches, zero-capacity battery.
func TestFuzzExtremeTraces(t *testing.T) {
	flat := func(v float64, slots int) []float64 {
		vals := make([]float64, slots)
		for i := range vals {
			vals[i] = v
		}
		return vals
	}
	const slots = 48
	cases := []struct {
		name string
		mut  func(*trace.Set, *Params)
	}{
		{"zero demand", func(s *trace.Set, p *Params) {
			s.DemandDS = trace.FromValues("demand_ds", "MWh", 60, flat(0, slots))
			s.DemandDT = trace.FromValues("demand_dt", "MWh", 60, flat(0, slots))
		}},
		{"zero renewable", func(s *trace.Set, p *Params) {
			s.Renewable = trace.FromValues("renewable", "MWh", 60, flat(0, slots))
		}},
		{"max prices", func(s *trace.Set, p *Params) {
			s.PriceLT = trace.FromValues("price_lt", "MWh", 60, flat(p.PmaxUSD, slots))
			s.PriceRT = trace.FromValues("price_rt", "MWh", 60, flat(p.PmaxUSD, slots))
		}},
		{"free power", func(s *trace.Set, p *Params) {
			s.PriceLT = trace.FromValues("price_lt", "MWh", 60, flat(0, slots))
			s.PriceRT = trace.FromValues("price_rt", "MWh", 60, flat(0, slots))
		}},
		{"no battery", func(s *trace.Set, p *Params) {
			p.Battery.CapacityMWh = 0
			p.Battery.MinLevelMWh = 0
			p.Battery.InitialMWh = 0
		}},
	}
	r := rand.New(rand.NewSource(72))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			set := randomTraceSet(r, slots, p.PgridMWh, p.PmaxUSD)
			tc.mut(set, &p)
			ctrl, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sim.Run(simConfig(p), set, ctrl)
			if err != nil {
				t.Fatal(err)
			}
			if rep.UnservedMWh > 1e-6 {
				t.Errorf("unserved = %g", rep.UnservedMWh)
			}
		})
	}
}
