// Package battery models the datacenter UPS energy store of SmartDPSS
// (Sec. II-A.3, II-B.4, II-B.5): a finite battery with capacity bounds
// [Bmin, Bmax], per-slot charge/discharge rate limits Bcmax/Bdmax,
// charge/discharge efficiencies ηc ≤ 1 and ηd ≥ 1, a per-use operation
// cost Cb = Cbuy/Ccycle, and an optional lifetime operation budget Nmax.
//
// Energy accounting follows Eq. (3) of the paper: charging brc increases
// the stored level by ηc·brc; delivering bdc to the load drains ηd·bdc
// from the store. Each slot either charges or discharges, never both
// (brc(τ)·bdc(τ) ≡ 0).
//
// The package owns the battery state machine and its parameter
// validation. Params travel in sim.Plant, the plant every layer shares:
// internal/sim executes charge/discharge decisions against them,
// internal/core reads the limits for the P5 weights and the battery
// queue X(t) = b(t) − core.Params.XShift, internal/baseline turns them
// into LP bounds, and internal/engine sizes them from Options
// (battery.Sized).
package battery

import (
	"errors"
	"fmt"
	"math"
)

// Params describes a UPS battery.
type Params struct {
	// CapacityMWh is Bmax, the maximum stored energy.
	CapacityMWh float64
	// MinLevelMWh is Bmin, the availability reserve that must always remain
	// (sized to ride through a power outage, Sec. II-B.4).
	MinLevelMWh float64
	// MaxChargeMWh is Bcmax, the maximum grid-side energy absorbed per slot.
	MaxChargeMWh float64
	// MaxDischargeMWh is Bdmax, the maximum load-side energy delivered per slot.
	MaxDischargeMWh float64
	// ChargeEff is ηc ∈ (0, 1]: stored fraction of absorbed energy.
	ChargeEff float64
	// DischargeEff is ηd ≥ 1: stored energy drained per delivered unit.
	DischargeEff float64
	// OpCostUSD is Cb, charged once per slot in which the battery moves.
	OpCostUSD float64
	// MaxOps is Nmax, the total operation budget over the horizon
	// (0 means unlimited).
	MaxOps int
	// InitialMWh is b(0). It must lie within [MinLevelMWh, CapacityMWh].
	InitialMWh float64
}

// Sized returns paper-style parameters for a battery able to power a
// datacenter peak of peakMW for maxMinutes (Bmax) with a minMinutes
// availability reserve (Bmin), using the constants of Sec. VI-A: over
// an hourly fine slot, the paper's Bcmax = Bdmax = 0.5 MW power ratings
// are 0.5 MWh per slot.
func Sized(peakMW, maxMinutes, minMinutes float64) Params {
	bmax := peakMW * maxMinutes / 60
	bmin := math.Min(peakMW*minMinutes/60, bmax)
	return Params{
		CapacityMWh:     bmax,
		MinLevelMWh:     bmin,
		MaxChargeMWh:    0.5,
		MaxDischargeMWh: 0.5,
		ChargeEff:       0.8,
		DischargeEff:    1.25,
		OpCostUSD:       0.1,
		InitialMWh:      bmin + 0.5*(bmax-bmin),
	}
}

// Validate reports parameter errors, non-finite values first (a sizing
// that overflows, such as Sized(1e308, 15, 1), yields +Inf levels).
func (p Params) Validate() error {
	for _, v := range [...]float64{p.CapacityMWh, p.MinLevelMWh, p.MaxChargeMWh,
		p.MaxDischargeMWh, p.ChargeEff, p.DischargeEff, p.OpCostUSD, p.InitialMWh} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("battery: non-finite parameter")
		}
	}
	switch {
	case p.CapacityMWh < 0:
		return errors.New("battery: negative capacity")
	case p.MinLevelMWh < 0 || p.MinLevelMWh > p.CapacityMWh:
		return errors.New("battery: MinLevelMWh outside [0, CapacityMWh]")
	case p.MaxChargeMWh < 0 || p.MaxDischargeMWh < 0:
		return errors.New("battery: negative rate limit")
	case p.ChargeEff <= 0 || p.ChargeEff > 1:
		return errors.New("battery: ChargeEff must be in (0, 1]")
	case p.DischargeEff < 1:
		return errors.New("battery: DischargeEff must be >= 1")
	case p.OpCostUSD < 0:
		return errors.New("battery: negative operation cost")
	case p.MaxOps < 0:
		return errors.New("battery: negative MaxOps")
	case p.InitialMWh < p.MinLevelMWh || p.InitialMWh > p.CapacityMWh:
		return errors.New("battery: InitialMWh outside [MinLevelMWh, CapacityMWh]")
	}
	return nil
}

// Errors returned by Apply.
var (
	ErrBothDirections = errors.New("battery: cannot charge and discharge in the same slot")
	ErrRateLimit      = errors.New("battery: rate limit exceeded")
	ErrBounds         = errors.New("battery: level bound violated")
	ErrOpBudget       = errors.New("battery: operation budget Nmax exhausted")
	ErrNegative       = errors.New("battery: negative energy amount")
)

// Battery is a stateful UPS instance.
type Battery struct {
	params Params
	level  float64
	ops    int
	// lifetime counters
	chargedMWh    float64 // grid-side energy absorbed
	dischargedMWh float64 // load-side energy delivered
}

// New returns a battery initialized to p.InitialMWh.
func New(p Params) (*Battery, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Battery{params: p, level: p.InitialMWh}, nil
}

// Params returns the battery's configuration.
func (b *Battery) Params() Params { return b.params }

// Level returns the current stored energy b(τ) in MWh.
func (b *Battery) Level() float64 { return b.level }

// Ops returns the number of slots in which the battery moved (Σ n(τ)).
func (b *Battery) Ops() int { return b.ops }

// ChargedTotal returns lifetime grid-side absorbed energy in MWh.
func (b *Battery) ChargedTotal() float64 { return b.chargedMWh }

// DischargedTotal returns lifetime load-side delivered energy in MWh.
func (b *Battery) DischargedTotal() float64 { return b.dischargedMWh }

// Available reports whether the availability reserve holds (b ≥ Bmin).
func (b *Battery) Available() bool { return b.level >= b.params.MinLevelMWh-1e-9 }

// OpsExhausted reports whether the Nmax operation budget is used up.
func (b *Battery) OpsExhausted() bool {
	return b.params.MaxOps > 0 && b.ops >= b.params.MaxOps
}

// MaxChargeNow returns the largest grid-side energy the battery can absorb
// this slot, limited by both the rate cap and the remaining headroom.
func (b *Battery) MaxChargeNow() float64 {
	if b.OpsExhausted() {
		return 0
	}
	room := (b.params.CapacityMWh - b.level) / b.params.ChargeEff
	return max(0, min(b.params.MaxChargeMWh, room))
}

// MaxDischargeNow returns the largest load-side energy the battery can
// deliver this slot without breaching Bmin, limited by the rate cap.
func (b *Battery) MaxDischargeNow() float64 {
	if b.OpsExhausted() {
		return 0
	}
	avail := (b.level - b.params.MinLevelMWh) / b.params.DischargeEff
	return max(0, min(b.params.MaxDischargeMWh, avail))
}

// State is the battery's mutable state, exported for session checkpoints
// (the configuration is not part of it — a checkpoint's config hash pins
// that separately). All fields round-trip exactly through JSON, so a
// restored battery continues bit-for-bit where the snapshot was taken.
type State struct {
	LevelMWh      float64 `json:"levelMWh"`
	Ops           int     `json:"ops"`
	ChargedMWh    float64 `json:"chargedMWh"`
	DischargedMWh float64 `json:"dischargedMWh"`
}

// State captures the battery's mutable state for a checkpoint.
func (b *Battery) State() State {
	return State{
		LevelMWh:      b.level,
		Ops:           b.ops,
		ChargedMWh:    b.chargedMWh,
		DischargedMWh: b.dischargedMWh,
	}
}

// CheckState reports whether Restore accepts s: the level must lie
// within the configured bounds and the operation count must not be
// negative.
func (b *Battery) CheckState(s State) error {
	if s.LevelMWh < b.params.MinLevelMWh-1e-9 || s.LevelMWh > b.params.CapacityMWh+1e-9 {
		return fmt.Errorf("%w: restored level %g outside [%g, %g]",
			ErrBounds, s.LevelMWh, b.params.MinLevelMWh, b.params.CapacityMWh)
	}
	if s.Ops < 0 {
		return errors.New("battery: negative restored ops count")
	}
	return nil
}

// Restore overwrites the battery's mutable state from a checkpoint that
// CheckState accepts (on error the battery is unchanged); lifetime
// counters are taken verbatim.
func (b *Battery) Restore(s State) error {
	if err := b.CheckState(s); err != nil {
		return err
	}
	b.level = s.LevelMWh
	b.ops = s.Ops
	b.chargedMWh = s.ChargedMWh
	b.dischargedMWh = s.DischargedMWh
	return nil
}

// Apply executes one slot of battery action: absorb charge MWh from the
// supply and/or deliver discharge MWh to the load. Exactly one of the two
// may be positive. The level and the counters are updated atomically; on
// error the battery is unchanged.
func (b *Battery) Apply(charge, discharge float64) error {
	const eps = 1e-9
	if charge < -eps || discharge < -eps {
		return ErrNegative
	}
	charge = max(0, charge)
	discharge = max(0, discharge)
	if charge > eps && discharge > eps {
		return ErrBothDirections
	}
	if charge <= eps && discharge <= eps {
		return nil // idle slot: no operation counted
	}
	if b.OpsExhausted() {
		return ErrOpBudget
	}
	if charge > b.params.MaxChargeMWh+eps || discharge > b.params.MaxDischargeMWh+eps {
		return fmt.Errorf("%w: charge=%g discharge=%g", ErrRateLimit, charge, discharge)
	}
	next := b.level + charge*b.params.ChargeEff - discharge*b.params.DischargeEff
	if next > b.params.CapacityMWh+eps || next < b.params.MinLevelMWh-eps {
		return fmt.Errorf("%w: level %g -> %g outside [%g, %g]",
			ErrBounds, b.level, next, b.params.MinLevelMWh, b.params.CapacityMWh)
	}
	b.level = min(b.params.CapacityMWh, max(b.params.MinLevelMWh, next))
	b.ops++
	b.chargedMWh += charge
	b.dischargedMWh += discharge
	return nil
}
