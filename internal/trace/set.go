package trace

import (
	"errors"
	"fmt"
	"math"
)

// MaxEnergyMWh bounds every slot's energy samples — both demand classes
// and renewable output — in trace validation and in a streaming
// session's slot input. Demand above supply is legal (it becomes
// emergency energy), so the bound sits far above any physical cap (a
// terawatt-hour per slot, 250,000 times the default 4 MWh supply cap);
// it keeps a slot's energy balance closing in float64 well within the
// engine's 1e-6 MWh check, and a report's accumulators finite.
const MaxEnergyMWh = 1e6

// Set bundles the five input series a DPSS simulation consumes. All series
// are at fine-slot resolution; the controller samples PriceLT at
// coarse-slot starts (the long-term-ahead market of Sec. II-A).
type Set struct {
	// DemandDS is the delay-sensitive energy demand dds(τ) in MWh per slot.
	DemandDS *Series
	// DemandDT is the delay-tolerant energy demand ddt(τ) in MWh per slot.
	DemandDT *Series
	// Renewable is the on-site renewable production r(τ) in MWh per slot.
	Renewable *Series
	// PriceLT is the long-term-ahead market price plt in USD/MWh.
	PriceLT *Series
	// PriceRT is the real-time market price prt in USD/MWh.
	PriceRT *Series
}

// Horizon returns the number of fine slots covered by the set.
func (s *Set) Horizon() int {
	if s.DemandDS == nil {
		return 0
	}
	return s.DemandDS.Len()
}

// Validate checks presence, equal lengths, finiteness, and
// non-negativity of all series, and that no energy sample exceeds
// MaxEnergyMWh. It reads each series once.
func (s *Set) Validate() error {
	names := [...]string{"DemandDS", "DemandDT", "Renewable", "PriceLT", "PriceRT"}
	series := [...]*Series{s.DemandDS, s.DemandDT, s.Renewable, s.PriceLT, s.PriceRT}
	for i, sr := range series {
		if sr == nil {
			return fmt.Errorf("trace: set is missing %s", names[i])
		}
	}
	n := series[0].Len()
	if n == 0 {
		return errors.New("trace: set has zero horizon")
	}
	for i, sr := range series {
		if err := checkSeries(names[i], i < 3, sr, n); err != nil {
			return err
		}
	}
	return nil
}

// checkSeries applies Validate's rules to one series of a set of n
// slots: finite samples, n of them, none negative, and for an energy
// series none above MaxEnergyMWh. A valid series costs one pass of plain
// comparisons; only a failing one goes through seriesError, which words
// the first broken rule.
func checkSeries(name string, energy bool, sr *Series, n int) error {
	limit := math.MaxFloat64
	if energy {
		limit = MaxEnergyMWh
	}
	if sr.Len() == n && inRange(sr.Values, limit) {
		return nil
	}
	return seriesError(name, energy, sr, n)
}

// inRange reports whether every value lies in [0, limit]. NaN fails
// both comparisons, and a finite limit refuses +Inf.
func inRange(values []float64, limit float64) bool {
	for _, v := range values {
		if !(v >= 0 && v <= limit) {
			return false
		}
	}
	return true
}

// seriesError returns the error checkSeries reports for sr, checking
// the rules in their reporting order: finiteness, length, sign and the
// energy bound.
func seriesError(name string, energy bool, sr *Series, n int) error {
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

// Clone deep-copies the whole set.
func (s *Set) Clone() *Set {
	return s.CloneInto(nil)
}

// CloneInto deep-copies the whole set into dst, reusing dst's series
// storage where the shapes allow, and returns dst (freshly allocated
// when nil). Sweep engines use it to recycle one buffer set across many
// sweep points instead of allocating a full deep copy per point.
func (s *Set) CloneInto(dst *Set) *Set {
	if dst == nil {
		dst = &Set{}
	}
	dst.DemandDS = s.DemandDS.CopyInto(dst.DemandDS)
	dst.DemandDT = s.DemandDT.CopyInto(dst.DemandDT)
	dst.Renewable = s.Renewable.CopyInto(dst.Renewable)
	dst.PriceLT = s.PriceLT.CopyInto(dst.PriceLT)
	dst.PriceRT = s.PriceRT.CopyInto(dst.PriceRT)
	return dst
}

// WithDemandDS returns a shallow copy of the set with the delay-sensitive
// demand series replaced. Every other series is shared with the receiver,
// so a router that reassigns demand across sites pays one new series per
// site, not a deep copy of the whole set. The replacement must pass
// Validate's rules for DemandDS against the set's horizon, so the copy
// of a valid set is valid too.
func (s *Set) WithDemandDS(ds *Series) (*Set, error) {
	if ds == nil || s.DemandDS == nil {
		return nil, errors.New("trace: WithDemandDS needs a DemandDS on both sides")
	}
	if err := checkSeries("DemandDS", true, ds, s.Horizon()); err != nil {
		return nil, err
	}
	out := *s
	out.DemandDS = ds
	return &out, nil
}

// ScaleSystem multiplies demand and renewable by β, modelling the system
// expansion scenario of Sec. V-C (d(β,t) = βd(t), r(β,t) = βr(t)); prices
// are left unchanged. It returns the receiver.
func (s *Set) ScaleSystem(beta float64) *Set {
	s.DemandDS.Scale(beta)
	s.DemandDT.Scale(beta)
	s.Renewable.Scale(beta)
	return s
}

// ScaleDemandVariation stretches both demand series around their means by
// factor k (k > 1 increases the standard deviation, k < 1 flattens),
// clipping at zero. Used for the demand-variation axis of Fig. 8; the mean
// is preserved up to clipping.
func (s *Set) ScaleDemandVariation(k float64) error {
	if k < 0 {
		return fmt.Errorf("trace: negative variation factor %g", k)
	}
	for _, sr := range []*Series{s.DemandDS, s.DemandDT} {
		mean := sr.Mean()
		for i, v := range sr.Values {
			nv := mean + k*(v-mean)
			if nv < 0 {
				nv = 0
			}
			sr.Values[i] = nv
		}
	}
	return nil
}

// TotalDemand returns a new series dds+ddt.
func (s *Set) TotalDemand() *Series {
	out := s.DemandDS.Clone()
	out.Name = "demand_total"
	if _, err := out.AddSeries(s.DemandDT); err != nil {
		// Lengths are validated elsewhere; an error here is a programming bug.
		panic(err)
	}
	return out
}

// RenewablePenetration returns Σr / Σd, the fraction of total demand that
// the on-site renewable production could cover (Fig. 8's x-axis).
func (s *Set) RenewablePenetration() float64 {
	d := s.DemandDS.Sum() + s.DemandDT.Sum()
	if d == 0 {
		return 0
	}
	return s.Renewable.Sum() / d
}

// SetPenetration rescales the renewable series so that
// RenewablePenetration() == target. A zero-sum renewable series cannot be
// rescaled and produces an error.
func (s *Set) SetPenetration(target float64) error {
	if target < 0 {
		return fmt.Errorf("trace: negative penetration %g", target)
	}
	cur := s.RenewablePenetration()
	if cur == 0 {
		if target == 0 {
			return nil
		}
		return errors.New("trace: cannot scale an all-zero renewable series")
	}
	s.Renewable.Scale(target / cur)
	return nil
}
