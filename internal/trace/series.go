// Package trace provides the time-series substrate for the SmartDPSS
// evaluation: hourly slot-indexed series, CSV import/export and summary
// statistics. All of the paper's evaluation (Sec. VI) is trace-driven
// and hourly; the synthetic generators in internal/solar,
// internal/pricing and internal/workload produce Series values defined
// here, SlotsPerDay slots a day.
package trace

import (
	"fmt"
	"math"
)

// SlotsPerDay is the number of fine slots in a day. Every slot is an
// hour long, the resolution of the paper's whole evaluation (Sec. VI),
// so a slot's energy in MWh equals its average power in MW, and slot i
// starts at hour i%SlotsPerDay of its day.
const SlotsPerDay = 24

// Series is an hourly time series. Index 0 is the first fine-grained
// slot of the simulation horizon.
type Series struct {
	// Name identifies the series (e.g. "demand_ds"); used as a CSV header.
	Name string
	// Unit documents the value unit (e.g. "MWh", "USD/MWh").
	Unit string
	// Values holds one sample per slot.
	Values []float64
}

// New returns a zero-filled series of n slots.
func New(name, unit string, n int) *Series {
	return &Series{Name: name, Unit: unit, Values: make([]float64, n)}
}

// FromValues wraps the given samples (the slice is copied).
func FromValues(name, unit string, values []float64) *Series {
	v := make([]float64, len(values))
	copy(v, values)
	return &Series{Name: name, Unit: unit, Values: v}
}

// Len reports the number of slots.
func (s *Series) Len() int { return len(s.Values) }

// At returns the sample at slot i, or 0 when i is out of range. The
// out-of-range behaviour lets controllers run past trace ends in tests
// without panicking; the simulator validates horizons up front.
func (s *Series) At(i int) float64 {
	if i < 0 || i >= len(s.Values) {
		return 0
	}
	return s.Values[i]
}

// Clone returns an independent deep copy.
func (s *Series) Clone() *Series {
	return FromValues(s.Name, s.Unit, s.Values)
}

// CopyInto deep-copies s into dst, reusing dst's sample storage when it
// is large enough, and returns dst (freshly allocated when nil). It is
// the caller-owned-buffer counterpart of Clone for sweep loops that
// clone many same-shape sets.
func (s *Series) CopyInto(dst *Series) *Series {
	if dst == nil {
		dst = &Series{}
	}
	dst.Name, dst.Unit = s.Name, s.Unit
	dst.Values = append(dst.Values[:0], s.Values...)
	return dst
}

// Scale multiplies every sample by k in place and returns the receiver.
func (s *Series) Scale(k float64) *Series {
	for i := range s.Values {
		s.Values[i] *= k
	}
	return s
}

// AddSeries adds other element-wise in place and returns the receiver.
// The series must have equal length.
func (s *Series) AddSeries(other *Series) (*Series, error) {
	if other.Len() != s.Len() {
		return nil, fmt.Errorf("trace: length mismatch %d vs %d", s.Len(), other.Len())
	}
	for i := range s.Values {
		s.Values[i] += other.Values[i]
	}
	return s, nil
}

// Sum returns the total over all slots.
func (s *Series) Sum() float64 {
	total := 0.0
	for _, v := range s.Values {
		total += v
	}
	return total
}

// Mean returns the arithmetic mean, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	return s.Sum() / float64(len(s.Values))
}

// Min returns the smallest sample, or +Inf for an empty series.
func (s *Series) Min() float64 {
	m := math.Inf(1)
	for _, v := range s.Values {
		m = math.Min(m, v)
	}
	return m
}

// Max returns the largest sample, or -Inf for an empty series.
func (s *Series) Max() float64 {
	m := math.Inf(-1)
	for _, v := range s.Values {
		m = math.Max(m, v)
	}
	return m
}

// StdDev returns the population standard deviation. The paper (Fig. 8) uses
// the same definition with uniform slot probabilities p_d(t) = 1/KT.
func (s *Series) StdDev() float64 {
	n := len(s.Values)
	if n == 0 {
		return 0
	}
	mean := s.Mean()
	acc := 0.0
	for _, v := range s.Values {
		d := v - mean
		acc += d * d
	}
	return math.Sqrt(acc / float64(n))
}

// Validate reports an error for NaN/Inf samples.
func (s *Series) Validate() error {
	_, _, err := s.validRange()
	return err
}

// validRange is Validate that also returns, from the same pass, the
// smallest and largest sample (+Inf and −Inf for an empty series).
func (s *Series) validRange() (lo, hi float64, err error) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i, v := range s.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, 0, fmt.Errorf("trace: %s[%d] is %v", s.Name, i, v)
		}
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi, nil
}
