package sim

import "github.com/smartdpss/smartdpss/internal/jsonenc"

// TrailingMeans accumulates per-slot observations of the exogenous inputs
// and reports their means since the last reset. Controllers use it to
// estimate the upcoming coarse interval's per-slot demand and renewable
// production from the interval just finished.
//
// The paper's Algorithm 1 reads a single fine slot ("observing ... the
// demand d(t) and renewable r(t) generated during time slot t") — adequate
// for hourly slots and T = 24, but a one-slot snapshot taken at an interval
// boundary (often midnight) badly misestimates a multi-day interval. A
// trailing mean over the previous interval is the natural causal estimator
// and keeps the long-term purchase stable across the T sweep of Fig. 6(c).
type TrailingMeans struct {
	sumDS  float64
	sumDT  float64
	sumRen float64
	n      int
}

// Observe records one fine slot's exogenous values.
func (m *TrailingMeans) Observe(dds, ddt, renewable float64) {
	m.sumDS += dds
	m.sumDT += ddt
	m.sumRen += renewable
	m.n++
}

// Ready reports whether any observations have been recorded since the
// last reset.
func (m *TrailingMeans) Ready() bool { return m.n > 0 }

// Means returns the per-slot means since the last reset; zeros when empty.
func (m *TrailingMeans) Means() (dds, ddt, renewable float64) {
	if m.n == 0 {
		return 0, 0, 0
	}
	f := float64(m.n)
	return m.sumDS / f, m.sumDT / f, m.sumRen / f
}

// Reset clears the accumulator (call at each coarse boundary after
// planning).
func (m *TrailingMeans) Reset() {
	*m = TrailingMeans{}
}

// TrailingMeansState is the accumulator in checkpoint form.
type TrailingMeansState struct {
	SumDS  float64 `json:"sumDS"`
	SumDT  float64 `json:"sumDT"`
	SumRen float64 `json:"sumRen"`
	N      int     `json:"n"`
}

// AppendJSON appends the state as json.Marshal encodes it, for the
// controllers that embed it in their checkpoint state.
func (s TrailingMeansState) AppendJSON(e *jsonenc.Encoder) {
	e.Open()
	e.Key("sumDS").Float(s.SumDS)
	e.Key("sumDT").Float(s.SumDT)
	e.Key("sumRen").Float(s.SumRen)
	e.Key("n").Int(s.N)
	e.Close()
}

// State captures the accumulator for a checkpoint.
func (m *TrailingMeans) State() TrailingMeansState {
	return TrailingMeansState{SumDS: m.sumDS, SumDT: m.sumDT, SumRen: m.sumRen, N: m.n}
}

// Restore overwrites the accumulator from a checkpoint.
func (m *TrailingMeans) Restore(s TrailingMeansState) {
	m.sumDS = s.SumDS
	m.sumDT = s.SumDT
	m.sumRen = s.SumRen
	m.n = s.N
}
