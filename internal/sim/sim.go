// Package sim is the discrete-time, two-timescale simulation engine of the
// SmartDPSS evaluation (Sec. VI). It owns the physical state — UPS battery,
// grid market account, and the delay-tolerant backlog queue — and executes
// controller decisions under the paper's constraints: the supply/demand
// balance (Eq. 4), the grid cap (Eq. 5), battery bounds and rate limits
// (Eqs. 7–8), and the per-slot service cap Sdtmax.
//
// Each run keeps one set of running totals. The market account bills
// the long-term and real-time purchases, the battery, backlog and fleet
// keep their own ledgers, and the session's Totals hold what no
// component keeps. Status reads them live, a Checkpoint carries them,
// and Finish builds the Report from them once.
//
// Controllers (SmartDPSS, Impatient, the offline benchmarks) implement the
// Controller interface and plan against the same Plant — the caps, UPS
// and generation fleet that Config embeds and the session executes.
// Because every algorithm plans against one plant and runs through the
// same engine and accounting, their reported costs are directly
// comparable.
package sim

import (
	"errors"
	"fmt"
	"math"

	"github.com/smartdpss/smartdpss/internal/battery"
	"github.com/smartdpss/smartdpss/internal/generator"
	"github.com/smartdpss/smartdpss/internal/trace"
)

// CoarseObs is what a controller sees at the start of a coarse slot t = kT
// (paper Fig. 2): the current fine slot's demand and renewable production,
// the long-term price for the upcoming interval, and system state.
type CoarseObs struct {
	Slot         int     // fine-slot index of the interval start
	Slots        int     // fine slots in this interval (T, shorter at horizon end)
	PriceLT      float64 // plt(t) in USD/MWh
	DemandDS     float64 // dds observed during the current fine slot, MWh
	DemandDT     float64 // ddt observed during the current fine slot, MWh
	Renewable    float64 // r observed during the current fine slot, MWh
	Battery      float64 // b(t) in MWh
	MaxDischarge float64 // deliverable battery energy this slot, MWh
	Backlog      float64 // Q(t) in MWh
}

// FineObs is what a controller sees each fine slot τ.
type FineObs struct {
	Slot int
	// Horizon is the total number of fine slots in the run (0 on
	// hand-built observations: unknown). Controllers with lookahead arms
	// clamp their projection windows to Horizon − Slot so they never
	// forecast past the end of the trace.
	Horizon      int
	PriceRT      float64 // prt(τ) in USD/MWh
	DemandDS     float64 // dds(τ), must be served now
	DemandDT     float64 // ddt(τ), joins the queue this slot
	Renewable    float64 // r(τ)
	LongTermDue  float64 // gbef(t)/T delivered this slot
	RTHeadroom   float64 // Pgrid − gbef(t)/T
	Battery      float64 // b(τ)
	MaxCharge    float64 // admissible brc(τ) this slot
	MaxDischarge float64 // admissible bdc(τ) this slot
	Backlog      float64 // Q(τ) before this slot's arrivals
	SdtMax       float64 // per-slot service cap Sdtmax
	Smax         float64 // per-slot supply cap (Eq. 1)

	// GenUnits is the per-unit dispatch state of the on-site generation
	// fleet, in fleet order (nil when no fleet is configured). A
	// controller addresses unit u through Decision.GenerateUnits[u].
	GenUnits []generator.UnitObs
}

// Decision is a controller's fine-slot action. The engine derives waste and
// unserved energy from the balance residual, so a Decision can never break
// Eq. (4) — it can only waste energy or fail demand, both of which are
// priced and reported.
type Decision struct {
	Grt       float64 // real-time purchase grt(τ), MWh
	ServeDT   float64 // backlog service sdt(τ) = γ(τ)Q(τ), MWh
	Charge    float64 // battery charge brc(τ), MWh (grid side)
	Discharge float64 // battery discharge bdc(τ), MWh (load side)
	// GenerateUnits is the on-site generation request g(τ) per unit, in
	// MWh and fleet order; entries beyond the slice's length (all of
	// them, for a nil slice) are zero. The engine clamps each request to
	// its unit's admissible set: a request below the minimum stable load
	// shuts the unit down, and a positive request while the unit is off
	// triggers a cold start (see FineObs.GenUnits and package
	// generator).
	GenerateUnits []float64
}

// Outcome reports the executed slot back to the controller so it can update
// its internal (virtual) queues.
type Outcome struct {
	Slot          int
	ServedDT      float64 // energy actually removed from the backlog
	BacklogBefore float64 // Q(τ) before serving/arrivals
	BacklogAfter  float64 // Q(τ+1)
	Waste         float64 // W(τ)
	Unserved      float64 // delay-sensitive energy shed (availability event)
	Battery       float64 // b(τ+1)
}

// Controller is a DPSS control policy.
type Controller interface {
	// Name identifies the policy in reports.
	Name() string
	// CoarseSlots returns T, the number of fine slots per coarse slot.
	CoarseSlots() int
	// PlanCoarse returns gbef(t), the total long-term-ahead purchase for
	// the upcoming interval (delivered evenly across its slots).
	PlanCoarse(obs CoarseObs) float64
	// PlanFine returns the fine-slot decision. The observation is the
	// session's own: a controller reads it during the call and neither
	// writes through the pointer nor keeps it.
	PlanFine(obs *FineObs) Decision
	// RecordOutcome delivers the executed slot for internal bookkeeping.
	RecordOutcome(out Outcome)
}

// Plant is the physical system every policy plans against and the
// session bills: the grid interface, the supply and service caps, the
// UPS and the on-site generation fleet. Config, core.Params and
// baseline.Config all embed it, so a controller's plan and the engine's
// execution read the same numbers.
type Plant struct {
	// PgridMWh is the per-slot grid draw cap Pgrid (Eq. 5).
	PgridMWh float64
	// PmaxUSD is the price cap of both markets.
	PmaxUSD float64
	// SmaxMWh is Smax, the per-slot cap on total supply s(τ) (Eq. 1).
	SmaxMWh float64
	// SdtMaxMWh is Sdtmax, the per-slot cap on delay-tolerant service.
	SdtMaxMWh float64
	// WasteCostUSD prices wasted energy per MWh (the paper adds W(τ) to
	// Cost(τ) directly, i.e. an implicit unit price).
	WasteCostUSD float64
	// EmergencyCostUSD prices unserved delay-sensitive energy per MWh.
	// The session reports it separately from the paper's Cost(τ); the
	// planners use it as the shadow price of shedding, so it must
	// exceed PmaxUSD.
	EmergencyCostUSD float64
	// Battery is the UPS configuration (Sec. VI-A constants by default).
	Battery battery.Params
	// Fleet is the on-site generation fleet in dispatch order
	// (nil/empty: no fleet, reproducing generation-free results
	// exactly). Each unit keeps its own physics and accounting;
	// Decision.GenerateUnits addresses them individually.
	Fleet []generator.Params
}

// DefaultPlant returns the paper's Sec. VI-A plant: Pgrid = 2 MWh and
// Smax = 4 MWh per one-hour slot, Sdtmax = 1 MWh, Pmax = 150 USD/MWh,
// a 15-minute UPS and no on-site generation.
func DefaultPlant() Plant {
	return Plant{
		PgridMWh:         2.0,
		PmaxUSD:          150,
		SmaxMWh:          4.0,
		SdtMaxMWh:        1.0,
		WasteCostUSD:     1.0,
		EmergencyCostUSD: 1e6,
		Battery:          battery.Sized(2.0, 15, 1),
	}
}

// Validate reports plant errors, non-finite values first.
func (p Plant) Validate() error {
	fields := [...]struct {
		name string
		v    float64
	}{
		{"PgridMWh", p.PgridMWh},
		{"PmaxUSD", p.PmaxUSD},
		{"SmaxMWh", p.SmaxMWh},
		{"SdtMaxMWh", p.SdtMaxMWh},
		{"WasteCostUSD", p.WasteCostUSD},
		{"EmergencyCostUSD", p.EmergencyCostUSD},
	}
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("sim: %s is not finite", f.name)
		}
	}
	switch {
	case p.PgridMWh <= 0:
		return errors.New("sim: PgridMWh must be positive")
	case p.PmaxUSD <= 0:
		return errors.New("sim: PmaxUSD must be positive")
	case p.SmaxMWh <= 0:
		return errors.New("sim: SmaxMWh must be positive")
	case p.SdtMaxMWh <= 0:
		return errors.New("sim: SdtMaxMWh must be positive")
	case p.WasteCostUSD < 0:
		return errors.New("sim: negative WasteCostUSD")
	case p.EmergencyCostUSD <= p.PmaxUSD:
		return errors.New("sim: EmergencyCostUSD must dwarf PmaxUSD")
	}
	if err := p.Battery.Validate(); err != nil {
		return err
	}
	for i, u := range p.Fleet {
		if err := u.Validate(); err != nil {
			return fmt.Errorf("sim: fleet unit %d: %w", i, err)
		}
	}
	return nil
}

// Config parameterizes the engine: the plant it executes, plus what
// only the engine's accounting reads.
type Config struct {
	Plant
	// PeakChargeUSDPerMW is an optional demand charge applied once per run
	// to the peak grid draw (in MW). Peak/demand-charge management is the
	// paper's declared future work (Sec. IV-C); the engine measures it and
	// reports the charge separately from the paper's Cost(τ).
	PeakChargeUSDPerMW float64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Plant.Validate(); err != nil {
		return err
	}
	if !(c.PeakChargeUSDPerMW >= 0) || math.IsInf(c.PeakChargeUSDPerMW, 1) {
		return errors.New("sim: PeakChargeUSDPerMW must be finite and non-negative")
	}
	return nil
}

// decisionTol absorbs controller round-off before decisions are validated;
// anything beyond it is treated as a controller bug.
const decisionTol = 1e-6

// Run simulates the controller over the trace set and returns the report.
// It is a thin batch loop over a Session: every slot Steps with the
// trace row and Commits, so batch and streaming execution share one code
// path and produce byte-identical reports.
func Run(cfg Config, set *trace.Set, ctrl Controller) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	s, err := NewSession(cfg, ctrl, set.Horizon(), nil)
	if err != nil {
		return nil, err
	}
	for slot := 0; slot < s.horizon; slot++ {
		in := InputAt(set, slot)
		if err := s.Plan(&in); err != nil {
			return nil, err
		}
		if _, err := s.Execute(); err != nil {
			return nil, err
		}
	}
	return s.Finish()
}

// InputAt reads slot's row of the trace set as a session input (the
// bridge batch Run and replay sources share).
func InputAt(set *trace.Set, slot int) SlotInput {
	return SlotInput{
		DemandDS:  set.DemandDS.At(slot),
		DemandDT:  set.DemandDT.At(slot),
		Renewable: set.Renewable.At(slot),
		PriceRT:   set.PriceRT.At(slot),
		PriceLT:   set.PriceLT.At(slot),
	}
}

func clamp(x, lo, hi float64) float64 { return min(hi, max(lo, x)) }
