// Package market provides the two-timescale smart-grid procurement
// bookkeeping of SmartDPSS (Sec. II-A.1, II-B.2): a long-term-ahead market
// committed once per coarse slot and delivered evenly over its T fine
// slots, and a real-time market purchased per fine slot, with the joint
// grid draw capped by Pgrid (Eq. 5) and prices capped by Pmax.
//
// The package owns the purchase ledgers — committed long-term energy, its
// per-slot delivery schedule, real-time buys and the headroom left under
// the caps. internal/sim drives it slot by slot (charging every purchase
// through it), and internal/engine configures it from Options; policy
// packages never touch it directly, they see its state through the
// observation structs.
package market

import (
	"errors"
	"fmt"
)

// Params bounds the grid interface.
type Params struct {
	// PgridMWh is the per-fine-slot cap on total grid energy
	// (gbef(t)/T + grt(τ) ≤ Pgrid, Eq. 5).
	PgridMWh float64
	// PmaxUSD is the price cap for both markets.
	PmaxUSD float64
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.PgridMWh <= 0 {
		return errors.New("market: PgridMWh must be positive")
	}
	if p.PmaxUSD <= 0 {
		return errors.New("market: PmaxUSD must be positive")
	}
	return nil
}

// Errors returned by Account methods.
var (
	ErrGridCap  = errors.New("market: Pgrid capacity exceeded")
	ErrPriceCap = errors.New("market: price outside [0, Pmax]")
	ErrNegative = errors.New("market: negative energy amount")
	ErrNoPeriod = errors.New("market: no active long-term commitment")
)

// Account tracks procurement across both markets for one datacenter.
type Account struct {
	params Params

	// current coarse interval
	ltDuePerSlot float64 // gbef(t)/T
	ltPrice      float64 // plt(t)
	active       bool

	// lifetime totals
	ltEnergyMWh float64
	rtEnergyMWh float64
	ltCostUSD   float64
	rtCostUSD   float64
}

// NewAccount returns an account with no active long-term commitment.
func NewAccount(p Params) (*Account, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Account{params: p}, nil
}

// Params returns the grid bounds.
func (a *Account) Params() Params { return a.params }

// BeginCoarse opens a coarse interval with a long-term purchase of
// gbefTotal MWh at price plt, delivered as gbefTotal/T per fine slot.
func (a *Account) BeginCoarse(gbefTotal, plt float64, slots int) error {
	if slots <= 0 {
		return fmt.Errorf("market: coarse interval needs positive slots, got %d", slots)
	}
	if gbefTotal < 0 {
		return ErrNegative
	}
	if plt < 0 || plt > a.params.PmaxUSD {
		return fmt.Errorf("%w: plt=%g", ErrPriceCap, plt)
	}
	perSlot := gbefTotal / float64(slots)
	if perSlot > a.params.PgridMWh+1e-9 {
		return fmt.Errorf("%w: gbef/T=%g > Pgrid=%g", ErrGridCap, perSlot, a.params.PgridMWh)
	}
	a.ltDuePerSlot = perSlot
	a.ltPrice = plt
	a.active = true
	return nil
}

// LongTermDue returns the energy delivered by the long-term market this
// fine slot (gbef(t)/T), zero before the first commitment.
func (a *Account) LongTermDue() float64 {
	if !a.active {
		return 0
	}
	return a.ltDuePerSlot
}

// RealTimeHeadroom returns the largest admissible real-time purchase this
// slot under the Pgrid cap.
func (a *Account) RealTimeHeadroom() float64 {
	h := a.params.PgridMWh - a.LongTermDue()
	if h < 0 {
		return 0
	}
	return h
}

// SettleLongTermSlot accrues one fine slot's share of the long-term bill
// (gbef(t)/T · plt(t), the first term of Cost(τ)) and returns that cost.
func (a *Account) SettleLongTermSlot() (float64, error) {
	if !a.active {
		return 0, ErrNoPeriod
	}
	cost := a.ltDuePerSlot * a.ltPrice
	a.ltEnergyMWh += a.ltDuePerSlot
	a.ltCostUSD += cost
	return cost, nil
}

// BuyRealTime purchases amount MWh at price prt this fine slot and returns
// its cost (the second term of Cost(τ)).
func (a *Account) BuyRealTime(amount, prt float64) (float64, error) {
	if amount < 0 {
		return 0, ErrNegative
	}
	if prt < 0 || prt > a.params.PmaxUSD {
		return 0, fmt.Errorf("%w: prt=%g", ErrPriceCap, prt)
	}
	if a.LongTermDue()+amount > a.params.PgridMWh+1e-9 {
		return 0, fmt.Errorf("%w: lt=%g + rt=%g > Pgrid=%g",
			ErrGridCap, a.LongTermDue(), amount, a.params.PgridMWh)
	}
	cost := amount * prt
	a.rtEnergyMWh += amount
	a.rtCostUSD += cost
	return cost, nil
}

// State is the account's mutable state, exported for session checkpoints
// (Params are pinned by the checkpoint's config hash, not stored here).
type State struct {
	LTDuePerSlot float64 `json:"ltDuePerSlot"`
	LTPrice      float64 `json:"ltPrice"`
	Active       bool    `json:"active"`
	LTEnergyMWh  float64 `json:"ltEnergyMWh"`
	RTEnergyMWh  float64 `json:"rtEnergyMWh"`
	LTCostUSD    float64 `json:"ltCostUSD"`
	RTCostUSD    float64 `json:"rtCostUSD"`
}

// State captures the account's mutable state for a checkpoint.
func (a *Account) State() State {
	return State{
		LTDuePerSlot: a.ltDuePerSlot,
		LTPrice:      a.ltPrice,
		Active:       a.active,
		LTEnergyMWh:  a.ltEnergyMWh,
		RTEnergyMWh:  a.rtEnergyMWh,
		LTCostUSD:    a.ltCostUSD,
		RTCostUSD:    a.rtCostUSD,
	}
}

// CheckState reports whether Restore accepts s: the per-slot long-term
// delivery within the grid cap and the long-term price within the
// price cap.
func (a *Account) CheckState(s State) error {
	if s.LTDuePerSlot < 0 || s.LTDuePerSlot > a.params.PgridMWh+1e-9 {
		return fmt.Errorf("%w: restored gbef/T=%g", ErrGridCap, s.LTDuePerSlot)
	}
	if s.LTPrice < 0 || s.LTPrice > a.params.PmaxUSD {
		return fmt.Errorf("%w: restored plt=%g", ErrPriceCap, s.LTPrice)
	}
	return nil
}

// Restore overwrites the account's mutable state from a checkpoint that
// CheckState accepts (on error the account is unchanged).
func (a *Account) Restore(s State) error {
	if err := a.CheckState(s); err != nil {
		return err
	}
	a.ltDuePerSlot = s.LTDuePerSlot
	a.ltPrice = s.LTPrice
	a.active = s.Active
	a.ltEnergyMWh = s.LTEnergyMWh
	a.rtEnergyMWh = s.RTEnergyMWh
	a.ltCostUSD = s.LTCostUSD
	a.rtCostUSD = s.RTCostUSD
	return nil
}

// LongTermEnergy returns lifetime long-term energy delivered in MWh.
func (a *Account) LongTermEnergy() float64 { return a.ltEnergyMWh }

// RealTimeEnergy returns lifetime real-time energy purchased in MWh.
func (a *Account) RealTimeEnergy() float64 { return a.rtEnergyMWh }

// LongTermCost returns the lifetime long-term bill in USD.
func (a *Account) LongTermCost() float64 { return a.ltCostUSD }

// RealTimeCost returns the lifetime real-time bill in USD.
func (a *Account) RealTimeCost() float64 { return a.rtCostUSD }
