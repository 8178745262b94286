package trace

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSeriesBasics(t *testing.T) {
	s := FromValues("demand", "MWh", []float64{1, 2, 3, 4})
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if got := s.At(2); got != 3 {
		t.Errorf("At(2) = %g, want 3", got)
	}
	if got := s.At(-1); got != 0 {
		t.Errorf("At(-1) = %g, want 0", got)
	}
	if got := s.At(4); got != 0 {
		t.Errorf("At(4) = %g, want 0", got)
	}
	if got := s.Sum(); got != 10 {
		t.Errorf("Sum = %g, want 10", got)
	}
	if got := s.Mean(); got != 2.5 {
		t.Errorf("Mean = %g, want 2.5", got)
	}
	if got := s.Min(); got != 1 {
		t.Errorf("Min = %g, want 1", got)
	}
	if got := s.Max(); got != 4 {
		t.Errorf("Max = %g, want 4", got)
	}
}

func TestSeriesFromValuesCopies(t *testing.T) {
	src := []float64{1, 2}
	s := FromValues("x", "", src)
	src[0] = 99
	if s.Values[0] != 1 {
		t.Error("FromValues must copy the input slice")
	}
}

func TestSeriesCloneIndependent(t *testing.T) {
	s := FromValues("x", "", []float64{1, 2})
	c := s.Clone()
	c.Values[0] = 42
	if s.Values[0] != 1 {
		t.Error("Clone must not share backing storage")
	}
}

func TestSeriesScale(t *testing.T) {
	s := FromValues("x", "", []float64{1, -2, 5})
	s.Scale(2)
	want := []float64{2, -4, 10}
	for i, w := range want {
		if s.Values[i] != w {
			t.Fatalf("after Scale: Values[%d] = %g, want %g", i, s.Values[i], w)
		}
	}
}

func TestSeriesAddSeries(t *testing.T) {
	a := FromValues("a", "", []float64{1, 2})
	b := FromValues("b", "", []float64{10, 20})
	if _, err := a.AddSeries(b); err != nil {
		t.Fatal(err)
	}
	if a.Values[0] != 11 || a.Values[1] != 22 {
		t.Errorf("AddSeries result %v", a.Values)
	}
	short := FromValues("c", "", []float64{1})
	if _, err := a.AddSeries(short); err == nil {
		t.Error("want length-mismatch error")
	}
}

func TestSeriesStdDev(t *testing.T) {
	s := FromValues("x", "", []float64{2, 4, 4, 4, 5, 5, 7, 9})
	if got := s.StdDev(); math.Abs(got-2) > 1e-12 {
		t.Errorf("StdDev = %g, want 2", got)
	}
	empty := New("e", "", 0)
	if got := empty.StdDev(); got != 0 {
		t.Errorf("empty StdDev = %g, want 0", got)
	}
}

func TestSeriesValidate(t *testing.T) {
	good := FromValues("x", "", []float64{1})
	if err := good.Validate(); err != nil {
		t.Errorf("valid series rejected: %v", err)
	}
	bad := FromValues("x", "", []float64{math.NaN()})
	if err := bad.Validate(); err == nil {
		t.Error("want error for NaN sample")
	}
	inf := FromValues("x", "", []float64{math.Inf(1)})
	if err := inf.Validate(); err == nil {
		t.Error("want error for Inf sample")
	}
}

func TestPropertyScaleThenSumMatches(t *testing.T) {
	f := func(raw []float64, k float64) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				continue
			}
			vals = append(vals, v)
		}
		if math.IsNaN(k) || math.IsInf(k, 0) || math.Abs(k) > 1e6 {
			k = 2
		}
		s := FromValues("x", "", vals)
		before := s.Sum()
		s.Scale(k)
		after := s.Sum()
		return math.Abs(after-k*before) <= 1e-6*math.Max(1, math.Abs(k*before))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
