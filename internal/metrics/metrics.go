// Package metrics provides the streaming statistic the experiments
// aggregate with: Welford mean/variance and extrema in O(1) memory.
//
// The package owns the accumulator types only — no simulation semantics.
// internal/experiments aggregates across seeds and sweep points with
// them; no other package imports this one.
package metrics

import "math"

// Stream accumulates scalar samples with O(1) updates.
type Stream struct {
	n        int
	mean     float64
	m2       float64
	min, max float64
}

// NewStream returns an empty stream.
func NewStream() *Stream {
	return &Stream{min: math.Inf(1), max: math.Inf(-1)}
}

// Add records one sample.
func (s *Stream) Add(x float64) {
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
	s.min = math.Min(s.min, x)
	s.max = math.Max(s.max, x)
}

// Count returns the number of samples.
func (s *Stream) Count() int { return s.n }

// Mean returns the running mean (0 when empty).
func (s *Stream) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.mean
}

// Variance returns the population variance (0 when empty).
func (s *Stream) Variance() float64 {
	if s.n == 0 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// StdDev returns the population standard deviation.
func (s *Stream) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest sample (+Inf when empty).
func (s *Stream) Min() float64 { return s.min }

// Max returns the largest sample (-Inf when empty).
func (s *Stream) Max() float64 { return s.max }
