package thermal

import (
	"math"
	"testing"

	"github.com/smartdpss/smartdpss/internal/trace"
)

// winter is the default winter month: 31 hourly days around 2 °C.
func winter() Config { return Config{Days: 31, MeanC: 2, Seed: 8} }

func TestGenerateTemperatureShape(t *testing.T) {
	c := winter()
	temps := GenerateTemperature(c)
	if temps.Len() != 31*24 {
		t.Fatalf("len = %d", temps.Len())
	}
	// Mean near the configured level.
	if math.Abs(temps.Mean()-c.MeanC) > 4 {
		t.Errorf("mean = %g, want near %g", temps.Mean(), c.MeanC)
	}
	// Afternoon warmer than pre-dawn on average.
	afternoon, dawn := 0.0, 0.0
	for d := 0; d < c.Days; d++ {
		afternoon += temps.Values[d*24+15]
		dawn += temps.Values[d*24+4]
	}
	if afternoon <= dawn {
		t.Error("afternoon not warmer than pre-dawn")
	}
}

func TestGenerateTemperatureDeterministic(t *testing.T) {
	a := GenerateTemperature(winter())
	b := GenerateTemperature(winter())
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatalf("diverged at %d", i)
		}
	}
}

func TestPUECurve(t *testing.T) {
	// Free cooling below 18°C, base 1.12, slope 0.02, max 1.6.
	tests := []struct {
		temp float64
		want float64
	}{
		{-10, 1.12},
		{18, 1.12},
		{23, 1.22},
		{28, 1.32},
		{100, 1.6}, // capped
	}
	for _, tt := range tests {
		if got := PUE(tt.temp); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("PUE(%g) = %g, want %g", tt.temp, got, tt.want)
		}
	}
	// Monotone non-decreasing.
	prev := 0.0
	for temp := -20.0; temp <= 60; temp += 0.5 {
		v := PUE(temp)
		if v < prev {
			t.Fatalf("PUE not monotone at %g", temp)
		}
		prev = v
	}
}

func testSet(n int) *trace.Set {
	mk := func(name string, base float64) *trace.Series {
		s := trace.New(name, "MWh", n)
		for i := range s.Values {
			s.Values[i] = base
		}
		return s
	}
	return &trace.Set{
		DemandDS:  mk("demand_ds", 1.0),
		DemandDT:  mk("demand_dt", 0.5),
		Renewable: mk("renewable", 0.1),
		PriceLT:   mk("price_lt", 40),
		PriceRT:   mk("price_rt", 50),
	}
}

func TestApplyCoolingWinterIsNeutral(t *testing.T) {
	c := winter() // 2°C mean: always free cooling
	c.Days = 1
	temps := GenerateTemperature(c)
	set := testSet(24)
	avgPUE, err := ApplyCooling(set, temps, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(avgPUE-basePUE) > 1e-9 {
		t.Errorf("winter avg PUE = %g, want base %g", avgPUE, basePUE)
	}
	// Demand scaled exactly by the base PUE.
	if math.Abs(set.DemandDS.Values[0]-1.0*basePUE) > 1e-9 {
		t.Errorf("dds = %g", set.DemandDS.Values[0])
	}
}

func TestApplyCoolingSummerRaisesDemand(t *testing.T) {
	c := winter()
	c.Days = 1
	c.MeanC = 26 // chiller regime
	temps := GenerateTemperature(c)
	set := testSet(24)
	before := set.TotalDemand().Sum()
	avgPUE, err := ApplyCooling(set, temps, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	if avgPUE <= basePUE {
		t.Errorf("summer avg PUE = %g, want above base", avgPUE)
	}
	after := set.TotalDemand().Sum()
	if after <= before {
		t.Error("summer cooling did not raise demand")
	}
}

func TestApplyCoolingClipsAtPgrid(t *testing.T) {
	c := winter()
	c.Days = 1
	c.MeanC = 30
	temps := GenerateTemperature(c)
	set := testSet(24)
	if _, err := ApplyCooling(set, temps, 1.6); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		if tot := set.DemandDS.Values[i] + set.DemandDT.Values[i]; tot > 1.6+1e-9 {
			t.Fatalf("slot %d: total %g above Pgrid 1.6", i, tot)
		}
	}
}

func TestApplyCoolingErrors(t *testing.T) {
	c := winter()
	c.Days = 1
	temps := GenerateTemperature(c)
	short := testSet(12)
	if _, err := ApplyCooling(short, temps, 2.0); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := ApplyCooling(testSet(24), temps, 0); err == nil {
		t.Error("zero Pgrid accepted")
	}
}
