// Package metrics provides the streaming statistic used by the
// simulation reports and experiments: Welford mean/variance and extrema
// in O(1) memory.
//
// The package owns the accumulator types only — no simulation semantics.
// internal/sim feeds them while building its per-run Report, and
// internal/experiments aggregates across seeds and sweep points with
// them; nothing below those two layers imports this package.
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

// StreamState is a stream's mutable state, exported for session
// checkpoints. An empty stream stores zero Min/Max (the live ±Inf
// sentinels do not survive JSON); Restore reinstates the sentinels from
// N == 0, so the round trip is exact in both cases.
type StreamState struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// State captures the stream's mutable state for a checkpoint.
func (s *Stream) State() StreamState {
	st := StreamState{N: s.n, Mean: s.mean, M2: s.m2, Min: s.min, Max: s.max}
	if st.N == 0 {
		st.Min, st.Max = 0, 0
	}
	return st
}

// Restore overwrites the stream's mutable state from a checkpoint.
func (s *Stream) Restore(st StreamState) {
	s.n = st.N
	s.mean = st.Mean
	s.m2 = st.M2
	s.min = st.Min
	s.max = st.Max
	if st.N == 0 {
		s.min, s.max = math.Inf(1), math.Inf(-1)
	}
}
