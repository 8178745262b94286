package trace

import (
	"errors"
	"fmt"
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
	// FuelScale is an optional sixth series: a per-slot multiplier on
	// every on-site generation unit's fuel cost curve (dimensionless;
	// 1.0 is the configured curve). Nil means a constant 1 — the static
	// fuel price of configurations without a fuel market — and keeps
	// fuel-trace-free runs byte-identical to earlier versions. Grid
	// prices are never touched by this series (they have PriceScale).
	FuelScale *Series
}

// FuelScaleAt returns the fuel-price multiplier for the slot (1 when no
// fuel series is configured).
func (s *Set) FuelScaleAt(slot int) float64 {
	if s.FuelScale == nil {
		return 1
	}
	return s.FuelScale.At(slot)
}

// Horizon returns the number of fine slots covered by the set.
func (s *Set) Horizon() int {
	if s.DemandDS == nil {
		return 0
	}
	return s.DemandDS.Len()
}

// all returns the series in a fixed order for uniform processing.
func (s *Set) all() []*Series {
	return []*Series{s.DemandDS, s.DemandDT, s.Renewable, s.PriceLT, s.PriceRT}
}

// Validate checks presence, equal lengths, matching slot sizes,
// finiteness, and non-negativity of all series, and that no energy
// sample exceeds MaxEnergyMWh.
func (s *Set) Validate() error {
	names := []string{"DemandDS", "DemandDT", "Renewable", "PriceLT", "PriceRT"}
	series := s.all()
	for i, sr := range series {
		if sr == nil {
			return fmt.Errorf("trace: set is missing %s", names[i])
		}
	}
	n := series[0].Len()
	slot := series[0].SlotMinutes
	if n == 0 {
		return errors.New("trace: set has zero horizon")
	}
	for i, sr := range series {
		if err := sr.Validate(); err != nil {
			return err
		}
		if sr.Len() != n {
			return fmt.Errorf("trace: %s has %d slots, want %d", names[i], sr.Len(), n)
		}
		if sr.SlotMinutes != slot {
			return fmt.Errorf("trace: %s has %d-minute slots, want %d", names[i], sr.SlotMinutes, slot)
		}
		if sr.Min() < 0 {
			return fmt.Errorf("trace: %s has negative samples", names[i])
		}
		if i < 3 && sr.Max() > MaxEnergyMWh { // the energy series
			return fmt.Errorf("trace: %s has samples above %g MWh", names[i], float64(MaxEnergyMWh))
		}
	}
	if fs := s.FuelScale; fs != nil {
		if err := fs.Validate(); err != nil {
			return err
		}
		if fs.Len() != n {
			return fmt.Errorf("trace: FuelScale has %d slots, want %d", fs.Len(), n)
		}
		if fs.SlotMinutes != slot {
			return fmt.Errorf("trace: FuelScale has %d-minute slots, want %d", fs.SlotMinutes, slot)
		}
		if fs.Min() < 0 {
			return errors.New("trace: FuelScale has negative samples")
		}
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
	if s.FuelScale != nil {
		dst.FuelScale = s.FuelScale.CopyInto(dst.FuelScale)
	} else {
		dst.FuelScale = nil
	}
	return dst
}

// WithDemandDS returns a shallow copy of the set with the delay-sensitive
// demand series replaced. Every other series is shared with the receiver,
// so a router that reassigns demand across sites pays one new series per
// site, not a deep copy of the whole set. The replacement must match the
// set's horizon and slot length.
func (s *Set) WithDemandDS(ds *Series) (*Set, error) {
	if ds == nil {
		return nil, errors.New("trace: nil replacement DemandDS")
	}
	if ds.Len() != s.Horizon() {
		return nil, fmt.Errorf("trace: replacement DemandDS has %d slots, want %d", ds.Len(), s.Horizon())
	}
	if s.DemandDS != nil && ds.SlotMinutes != s.DemandDS.SlotMinutes {
		return nil, fmt.Errorf("trace: replacement DemandDS has %d-minute slots, want %d",
			ds.SlotMinutes, s.DemandDS.SlotMinutes)
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
