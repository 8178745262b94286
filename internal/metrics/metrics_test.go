package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStreamBasics(t *testing.T) {
	s := NewStream()
	if s.Count() != 0 || s.Mean() != 0 || s.Variance() != 0 {
		t.Fatal("empty stream must report zeros")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.Count() != 8 {
		t.Errorf("Count = %d, want 8", s.Count())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %g, want 5", s.Mean())
	}
	if math.Abs(s.StdDev()-2) > 1e-12 {
		t.Errorf("StdDev = %g, want 2", s.StdDev())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %g/%g, want 2/9", s.Min(), s.Max())
	}
}

// TestPropertyWelfordMatchesDirect: streaming mean/variance must match the
// two-pass formulas.
func TestPropertyWelfordMatchesDirect(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	f := func() bool {
		n := 1 + r.Intn(500)
		vals := make([]float64, n)
		s := NewStream()
		for i := range vals {
			vals[i] = r.NormFloat64() * 100
			s.Add(vals[i])
		}
		mean := 0.0
		for _, v := range vals {
			mean += v
		}
		mean /= float64(n)
		varSum := 0.0
		for _, v := range vals {
			varSum += (v - mean) * (v - mean)
		}
		variance := varSum / float64(n)
		return math.Abs(s.Mean()-mean) < 1e-8*math.Max(1, math.Abs(mean)) &&
			math.Abs(s.Variance()-variance) < 1e-6*math.Max(1, variance)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
