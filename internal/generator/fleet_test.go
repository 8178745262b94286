package generator

import (
	"math"
	"reflect"
	"testing"
)

// fleetSpecs returns a small heterogeneous fleet: a cheap mid-size unit,
// an expensive peaker, and a big unit with a high minimum stable load.
func fleetSpecs() []Params {
	return []Params{
		{CapacityMWh: 0.5, MinLoadMWh: 0.1, FuelUSDPerMWh: 40, StartupUSD: 5, CO2KgPerMWh: 500},
		{CapacityMWh: 0.25, MinLoadMWh: 0.05, FuelUSDPerMWh: 90, CO2KgPerMWh: 700},
		{CapacityMWh: 1.0, MinLoadMWh: 0.6, FuelUSDPerMWh: 55, StartupUSD: 20, CO2KgPerMWh: 600},
	}
}

func TestNewFleetRejectsBadUnit(t *testing.T) {
	for _, capMWh := range []float64{-1, 0} {
		specs := fleetSpecs()
		specs[1].CapacityMWh = capMWh
		if _, err := NewFleet(specs); err == nil {
			t.Fatalf("unit of capacity %g accepted", capMWh)
		}
	}
}

func TestFleetMeritOrder(t *testing.T) {
	specs := fleetSpecs()
	if got, want := MeritOrder(specs), []int{0, 2, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("merit order = %v, want %v (40, 55, 90 USD/MWh)", got, want)
	}
	// Equal base marginals keep fleet order.
	specs[2].FuelUSDPerMWh = 40
	if got, want := MeritOrder(specs), []int{0, 2, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("tied merit order = %v, want %v", got, want)
	}
	specs[0].FuelUSDPerMWh = 55
	if got, want := MeritOrder(specs), []int{2, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("merit order = %v, want %v (55, 90, 40 USD/MWh)", got, want)
	}
}

func TestEmptyFleetInert(t *testing.T) {
	f, err := NewFleet(nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 0 {
		t.Fatalf("empty fleet not inert: size=%d", f.Size())
	}
	f.Tick()
	if obs := f.Observe(); obs != nil {
		t.Fatalf("empty fleet observed units: %+v", obs)
	}
	if outs := f.Dispatch([]float64{1, 2}); outs != nil {
		t.Fatalf("empty fleet dispatched: %+v", outs)
	}
}

func TestFleetDispatchAccountsPerUnit(t *testing.T) {
	f, err := NewFleet(fleetSpecs())
	if err != nil {
		t.Fatal(err)
	}
	f.Tick()
	outs := f.Dispatch([]float64{0.5, 0.25, 0})
	if outs[0].DeliveredMWh != 0.5 || outs[1].DeliveredMWh != 0.25 || outs[2].DeliveredMWh != 0 {
		t.Fatalf("delivered = %+v", outs)
	}
	if outs[0].StartupUSD != 5 {
		t.Fatalf("unit 0 startup = %g, want 5", outs[0].StartupUSD)
	}
	if math.Abs(outs[0].CO2Kg-0.5*500) > 1e-9 || math.Abs(outs[1].CO2Kg-0.25*700) > 1e-9 {
		t.Fatalf("CO2 = %g, %g", outs[0].CO2Kg, outs[1].CO2Kg)
	}
	starts, energy, co2 := 0, 0.0, 0.0
	for i := 0; i < f.Size(); i++ {
		u := f.Unit(i)
		starts += u.Starts()
		energy += u.EnergyTotal()
		co2 += u.CO2Total()
	}
	if starts != 2 || math.Abs(energy-0.75) > 1e-9 {
		t.Fatalf("fleet starts = %d, energy = %g; want 2, 0.75", starts, energy)
	}
	wantCO2 := 0.5*500 + 0.25*700
	if math.Abs(co2-wantCO2) > 1e-9 {
		t.Fatalf("fleet CO2 = %g, want %g", co2, wantCO2)
	}
}

func TestFleetShortRequestSliceShutsTail(t *testing.T) {
	f, err := NewFleet(fleetSpecs())
	if err != nil {
		t.Fatal(err)
	}
	f.Tick()
	f.Dispatch([]float64{0.5, 0.25, 1.0})
	outs := f.Dispatch([]float64{0.5}) // units 1 and 2 get implicit zeros
	if outs[1].DeliveredMWh != 0 || outs[2].DeliveredMWh != 0 {
		t.Fatalf("tail units kept producing: %+v", outs)
	}
	if f.Unit(1).Running() || f.Unit(2).Running() {
		t.Fatal("tail units still running after zero request")
	}
}
