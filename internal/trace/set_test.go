package trace

import (
	"fmt"
	"math"
	"testing"
)

func testSet(n int) *Set {
	mk := func(name string, base float64) *Series {
		s := New(name, "MWh", n)
		for i := range s.Values {
			s.Values[i] = base + float64(i%3)
		}
		return s
	}
	return &Set{
		DemandDS:  mk("demand_ds", 1),
		DemandDT:  mk("demand_dt", 0.5),
		Renewable: mk("renewable", 0.2),
		PriceLT:   mk("price_lt", 30),
		PriceRT:   mk("price_rt", 40),
	}
}

func TestSetValidate(t *testing.T) {
	s := testSet(10)
	if err := s.Validate(); err != nil {
		t.Fatalf("valid set rejected: %v", err)
	}
	if s.Horizon() != 10 {
		t.Errorf("Horizon = %d, want 10", s.Horizon())
	}
}

func TestSetValidateRejects(t *testing.T) {
	t.Run("missing series", func(t *testing.T) {
		s := testSet(5)
		s.PriceRT = nil
		if err := s.Validate(); err == nil {
			t.Error("want error for missing series")
		}
	})
	t.Run("length mismatch", func(t *testing.T) {
		s := testSet(5)
		s.Renewable = New("renewable", "MWh", 4)
		if err := s.Validate(); err == nil {
			t.Error("want error for length mismatch")
		}
	})
	t.Run("negative values", func(t *testing.T) {
		s := testSet(5)
		s.DemandDS.Values[0] = -1
		if err := s.Validate(); err == nil {
			t.Error("want error for negative demand")
		}
	})
	t.Run("zero horizon", func(t *testing.T) {
		s := testSet(0)
		if err := s.Validate(); err == nil {
			t.Error("want error for zero horizon")
		}
	})
	t.Run("nan", func(t *testing.T) {
		s := testSet(5)
		s.PriceLT.Values[1] = math.NaN()
		if err := s.Validate(); err == nil {
			t.Error("want error for NaN")
		}
	})
}

func TestSetCloneIndependent(t *testing.T) {
	s := testSet(4)
	c := s.Clone()
	c.DemandDS.Values[0] = 99
	if s.DemandDS.Values[0] == 99 {
		t.Error("Clone must deep copy")
	}
}

func TestSetScaleSystem(t *testing.T) {
	s := testSet(6)
	dBefore := s.DemandDS.Sum() + s.DemandDT.Sum()
	rBefore := s.Renewable.Sum()
	pBefore := s.PriceRT.Sum()
	s.ScaleSystem(2)
	if got := s.DemandDS.Sum() + s.DemandDT.Sum(); math.Abs(got-2*dBefore) > 1e-9 {
		t.Errorf("demand sum after scale = %g, want %g", got, 2*dBefore)
	}
	if got := s.Renewable.Sum(); math.Abs(got-2*rBefore) > 1e-9 {
		t.Errorf("renewable sum after scale = %g, want %g", got, 2*rBefore)
	}
	if got := s.PriceRT.Sum(); got != pBefore {
		t.Errorf("prices must not scale: %g vs %g", got, pBefore)
	}
}

func TestSetTotalDemand(t *testing.T) {
	s := testSet(4)
	total := s.TotalDemand()
	for i := 0; i < 4; i++ {
		want := s.DemandDS.Values[i] + s.DemandDT.Values[i]
		if total.Values[i] != want {
			t.Fatalf("TotalDemand[%d] = %g, want %g", i, total.Values[i], want)
		}
	}
}

func TestSetPenetration(t *testing.T) {
	s := testSet(9)
	if err := s.SetPenetration(0.5); err != nil {
		t.Fatal(err)
	}
	if got := s.RenewablePenetration(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("penetration = %g, want 0.5", got)
	}
	if err := s.SetPenetration(-1); err == nil {
		t.Error("want error for negative target")
	}
	zero := testSet(3)
	zero.Renewable = New("renewable", "MWh", 3)
	if err := zero.SetPenetration(0.5); err == nil {
		t.Error("want error for zero renewable")
	}
	if err := zero.SetPenetration(0); err != nil {
		t.Errorf("zero target on zero series should succeed: %v", err)
	}
}

// WithDemandDS holds the replacement to Validate's rules for DemandDS,
// so the copy of a valid set is valid, and shares every other series.
func TestSetWithDemandDS(t *testing.T) {
	s := testSet(5)
	ds := New("routed", "MWh", 5)
	out, err := s.WithDemandDS(ds)
	if err != nil {
		t.Fatal(err)
	}
	if out.DemandDS != ds || out.PriceRT != s.PriceRT || s.DemandDS == ds {
		t.Fatal("WithDemandDS must swap DemandDS in a copy and share the rest")
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		name string
		ds   *Series
	}{
		{"nil", nil},
		{"short", New("routed", "MWh", 4)},
		{"NaN", FromValues("routed", "MWh", []float64{0, math.NaN(), 0, 0, 0})},
		{"infinite", FromValues("routed", "MWh", []float64{0, 0, math.Inf(1), 0, 0})},
		{"negative", FromValues("routed", "MWh", []float64{0, 0, 0, -1, 0})},
		{"above bound", FromValues("routed", "MWh", []float64{0, 0, 0, 0, 2 * MaxEnergyMWh})},
	} {
		if _, err := s.WithDemandDS(bad.ds); err == nil {
			t.Errorf("%s replacement accepted", bad.name)
		}
	}
}

// checkSeriesOracle is checkSeries without its one-pass acceptance:
// every series goes through validRange and the rules in reporting order.
func checkSeriesOracle(name string, energy bool, sr *Series, n int) error {
	lo, hi, err := sr.validRange()
	if err != nil {
		return err
	}
	if sr.Len() != n {
		return fmt.Errorf("trace: %s has %d slots, want %d", name, sr.Len(), n)
	}
	if lo < 0 {
		return fmt.Errorf("trace: %s has negative samples", name)
	}
	if energy && hi > MaxEnergyMWh {
		return fmt.Errorf("trace: %s has samples above %g MWh", name, float64(MaxEnergyMWh))
	}
	return nil
}

// TestCheckSeriesMatchesOracle holds checkSeries to the oracle's verdict
// and error text on edge samples at the first, a middle and the last
// index, and on wrong lengths, for energy and price series alike.
func TestCheckSeriesMatchesOracle(t *testing.T) {
	const n = 5
	above := math.Nextafter(MaxEnergyMWh, math.Inf(1))
	samples := []float64{
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		MaxEnergyMWh, above, math.MaxFloat64, -1,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	type input struct {
		desc   string
		values []float64
	}
	base := func() []float64 { return []float64{1, 2, 3, 4, 5} }
	inputs := []input{{"valid", base()}}
	for _, v := range samples {
		for _, at := range []int{0, n / 2, n - 1} {
			vals := base()
			vals[at] = v
			inputs = append(inputs, input{fmt.Sprintf("%v at %d", v, at), vals})
		}
	}
	nan := base()
	nan[3] = math.NaN()
	inputs = append(inputs,
		input{"short", base()[:n-1]},
		input{"long", append(base(), 6)},
		input{"short with NaN", nan[:n-1]},
	)
	for _, in := range inputs {
		for _, energy := range []bool{true, false} {
			sr := FromValues("s", "MWh", in.values)
			got := checkSeries("DemandDS", energy, sr, n)
			want := checkSeriesOracle("DemandDS", energy, sr, n)
			if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
				t.Errorf("%s (energy %v): checkSeries = %v, oracle = %v", in.desc, energy, got, want)
			}
		}
	}

	// The bounds themselves, so an oracle drift cannot pass unseen.
	for _, c := range []struct {
		v      float64
		energy bool
		ok     bool
	}{
		{math.Copysign(0, -1), true, true},
		{math.SmallestNonzeroFloat64, true, true},
		{MaxEnergyMWh, true, true},
		{above, true, false},
		{above, false, true},
		{math.MaxFloat64, false, true},
		{math.Inf(1), false, false},
		{math.NaN(), false, false},
	} {
		vals := base()
		vals[2] = c.v
		err := checkSeries("DemandDS", c.energy, FromValues("s", "MWh", vals), n)
		if (err == nil) != c.ok {
			t.Errorf("sample %v (energy %v): checkSeries = %v, want ok=%v", c.v, c.energy, err, c.ok)
		}
	}
}
