// Package generator models dispatchable on-site power production — the
// diesel/gas-turbine "self-generation" source of "Dynamic Provisioning
// in Next-Generation Data Centers with On-site Power Production"
// (arXiv:1303.6775) — as a fourth supply source next to the two grid
// markets, the renewables and the UPS battery.
//
// The model captures the constraints that make on-site generation a
// genuinely different asset from a grid purchase:
//
//   - a nameplate capacity per fine slot (CapacityMWh);
//   - a minimum stable load (MinLoadMWh): a running unit cannot be
//     dispatched below it — the admissible output set is {0} ∪
//     [MinLoadMWh, CapacityMWh];
//   - a convex fuel cost curve Fuel(g) = FuelUSDPerMWh·g +
//     FuelQuadUSD·g², the classical linear-plus-quadratic heat-rate
//     approximation;
//   - a fixed startup cost and a startup lag: a cold start costs
//     StartupUSD and delivers its first energy StartupLagSlots slots
//     after the start request (synchronization time).
//
// Shutdown is instantaneous, and a synchronized unit may be dispatched
// anywhere in its band from one slot to the next. Every unit has a
// positive capacity: Validate refuses a zero one, and the engine drops
// a zero-capacity unit before it reaches this package.
package generator

import (
	"errors"
	"fmt"
	"math"
)

// tol absorbs round-off in dispatch requests.
const tol = 1e-9

// Params describes one dispatchable on-site generation unit.
type Params struct {
	// CapacityMWh is the nameplate output per fine slot (positive).
	CapacityMWh float64
	// MinLoadMWh is the minimum stable load: a running unit produces at
	// least this much. Requests below it shut the unit down.
	MinLoadMWh float64
	// FuelUSDPerMWh is the linear fuel price b of the cost curve
	// Fuel(g) = b·g + c·g².
	FuelUSDPerMWh float64
	// FuelQuadUSD is the quadratic coefficient c (USD/MWh²) of the fuel
	// cost curve; 0 gives a flat marginal price.
	FuelQuadUSD float64
	// StartupUSD is the fixed cost charged once per cold start.
	StartupUSD float64
	// StartupLagSlots is the synchronization delay: a start requested at
	// slot τ delivers its first energy at slot τ + StartupLagSlots.
	StartupLagSlots int
	// CO2KgPerMWh is the unit's emission intensity: kilograms of CO₂
	// released per MWh of delivered energy. It does not enter the fuel
	// bill by itself — a carbon price folds it into the marginal cost at
	// configuration time (see engine.Options.CarbonUSDPerTon) — but every
	// delivered MWh is accounted in the emissions totals.
	CO2KgPerMWh float64
}

// Validate reports parameter errors. NaN and ±Inf are rejected up front:
// every comparison below is false for NaN, so without the explicit check
// a NaN field would sail through validation and poison dispatch, fuel
// and emission series downstream.
func (p Params) Validate() error {
	for _, v := range [...]float64{
		p.CapacityMWh, p.MinLoadMWh, p.FuelUSDPerMWh,
		p.FuelQuadUSD, p.StartupUSD, p.CO2KgPerMWh,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("generator: non-finite parameter")
		}
	}
	switch {
	case p.CapacityMWh <= 0:
		return errors.New("generator: capacity not positive")
	case p.MinLoadMWh < 0 || p.MinLoadMWh > p.CapacityMWh:
		return errors.New("generator: MinLoadMWh outside [0, CapacityMWh]")
	case p.FuelUSDPerMWh < 0:
		return errors.New("generator: negative fuel price")
	case p.FuelQuadUSD < 0:
		return errors.New("generator: negative quadratic fuel coefficient (non-convex curve)")
	case p.StartupUSD < 0:
		return errors.New("generator: negative startup cost")
	case p.StartupLagSlots < 0:
		return errors.New("generator: negative startup lag")
	case p.CO2KgPerMWh < 0:
		return errors.New("generator: negative CO2 intensity")
	}
	return nil
}

// FuelCost returns the fuel cost of producing g MWh in one slot.
func (p Params) FuelCost(g float64) float64 {
	if g <= 0 {
		return 0
	}
	return p.FuelUSDPerMWh*g + p.FuelQuadUSD*g*g
}

// MarginalAt returns the marginal fuel price dFuel/dg at output g.
func (p Params) MarginalAt(g float64) float64 {
	return p.FuelUSDPerMWh + 2*p.FuelQuadUSD*g
}

// Segment is one piece of a piecewise-linear view of the fuel curve:
// Cap MWh of output available at constant marginal price USDPerMWh.
// Because the curve is convex, marginals are non-decreasing across
// consecutive segments, which is exactly what a merit-order (or LP)
// dispatch needs.
type Segment struct {
	Cap       float64
	USDPerMWh float64
}

// Segments decomposes the output band (lo, hi] into pieces with constant
// marginal prices: one exact piece for a flat curve, two equal pieces
// priced at their exact average marginal for a quadratic curve (the
// piecewise approximation is cost-exact at the segment boundaries).
func (p Params) Segments(lo, hi float64) []Segment {
	return p.AppendSegments(nil, lo, hi)
}

// AppendSegments appends the Segments decomposition of (lo, hi] to dst
// and returns it, letting hot paths reuse a scratch buffer instead of
// allocating per call.
func (p Params) AppendSegments(dst []Segment, lo, hi float64) []Segment {
	if hi <= lo+tol {
		return dst
	}
	if p.FuelQuadUSD == 0 {
		return append(dst, Segment{Cap: hi - lo, USDPerMWh: p.FuelUSDPerMWh})
	}
	mid := lo + (hi-lo)/2
	// Average marginal over (a, b] is (Fuel(b)−Fuel(a))/(b−a).
	avg := func(a, b float64) float64 { return (p.FuelCost(b) - p.FuelCost(a)) / (b - a) }
	return append(dst,
		Segment{Cap: mid - lo, USDPerMWh: avg(lo, mid)},
		Segment{Cap: hi - mid, USDPerMWh: avg(mid, hi)},
	)
}

// Generator is a stateful on-site generation unit.
type Generator struct {
	params Params

	running   bool
	countdown int // startup-lag slots remaining

	// lifetime accounting
	energyMWh  float64
	fuelUSD    float64
	startupUSD float64
	co2Kg      float64
	starts     int
	opSlots    int
}

// New returns a cold (off) generator.
func New(p Params) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Generator{params: p}, nil
}

// Params returns the unit's configuration.
func (g *Generator) Params() Params { return g.params }

// Running reports whether the unit is synchronized and producing-capable.
func (g *Generator) Running() bool { return g.running }

// Starting reports whether a start is pending (lag not yet elapsed).
func (g *Generator) Starting() bool { return g.countdown > 0 }

// EnergyTotal returns lifetime delivered energy in MWh.
func (g *Generator) EnergyTotal() float64 { return g.energyMWh }

// FuelCostTotal returns lifetime fuel cost in USD.
func (g *Generator) FuelCostTotal() float64 { return g.fuelUSD }

// StartupCostTotal returns lifetime startup cost in USD.
func (g *Generator) StartupCostTotal() float64 { return g.startupUSD }

// CO2Total returns lifetime emissions in kg CO₂.
func (g *Generator) CO2Total() float64 { return g.co2Kg }

// Starts returns the number of cold starts.
func (g *Generator) Starts() int { return g.starts }

// OpSlots returns the number of slots with positive output.
func (g *Generator) OpSlots() int { return g.opSlots }

// Window returns the deliverable output band for the current slot:
// (0, 0) while the unit is still synchronizing or off behind a startup
// lag (a start requested now delivers nothing this slot), otherwise
// [MinLoadMWh, CapacityMWh]. Zero output (shutdown / stay off) is
// always admissible in addition to the band.
func (g *Generator) Window() (lo, hi float64) {
	p := &g.params
	if g.countdown > 0 || (!g.running && p.StartupLagSlots > 0) {
		return 0, 0
	}
	return p.MinLoadMWh, p.CapacityMWh
}

// RequestMax returns the largest meaningful dispatch request this slot:
// the nameplate capacity, which an off unit behind a synchronization
// lag may also request (the request then signals a start and delivers
// nothing yet), and 0 while a start is already in progress.
func (g *Generator) RequestMax() float64 {
	if g.countdown > 0 {
		return 0
	}
	return g.params.CapacityMWh
}

// State is one unit's mutable state, exported for session checkpoints
// (Params are pinned by the checkpoint's config hash, not stored here).
type State struct {
	Running    bool    `json:"running"`
	Countdown  int     `json:"countdown"`
	EnergyMWh  float64 `json:"energyMWh"`
	FuelUSD    float64 `json:"fuelUSD"`
	StartupUSD float64 `json:"startupUSD"`
	CO2Kg      float64 `json:"co2Kg"`
	Starts     int     `json:"starts"`
	OpSlots    int     `json:"opSlots"`
}

// State captures the unit's mutable state for a checkpoint.
func (g *Generator) State() State {
	return State{
		Running:    g.running,
		Countdown:  g.countdown,
		EnergyMWh:  g.energyMWh,
		FuelUSD:    g.fuelUSD,
		StartupUSD: g.startupUSD,
		CO2Kg:      g.co2Kg,
		Starts:     g.starts,
		OpSlots:    g.opSlots,
	}
}

// CheckState reports whether Restore accepts s: the startup countdown
// within the unit's lag.
func (g *Generator) CheckState(s State) error {
	if s.Countdown < 0 || s.Countdown > g.params.StartupLagSlots {
		return fmt.Errorf("generator: restored countdown %d outside [0, %d]",
			s.Countdown, g.params.StartupLagSlots)
	}
	return nil
}

// Restore overwrites the unit's mutable state from a checkpoint that
// CheckState accepts (on error the unit is unchanged).
func (g *Generator) Restore(s State) error {
	if err := g.CheckState(s); err != nil {
		return err
	}
	g.running = s.Running
	g.countdown = s.Countdown
	g.energyMWh = s.EnergyMWh
	g.fuelUSD = s.FuelUSD
	g.startupUSD = s.StartupUSD
	g.co2Kg = s.CO2Kg
	g.starts = s.Starts
	g.opSlots = s.OpSlots
	return nil
}

// Outcome reports one executed dispatch slot.
type Outcome struct {
	// DeliveredMWh is the energy actually produced this slot.
	DeliveredMWh float64
	// FuelUSD is the fuel cost of the delivered energy.
	FuelUSD float64
	// StartupUSD is the startup cost charged this slot (on cold starts).
	StartupUSD float64
	// CO2Kg is the emitted CO₂ of the delivered energy.
	CO2Kg float64
}

// Tick advances the synchronization countdown at the start of a slot,
// BEFORE the controller observes the unit: a start requested at slot τ
// with lag L becomes visible (and dispatchable) at slot τ+L. Callers
// drive one Tick per fine slot, then read Window/RequestMax, then
// Dispatch.
func (g *Generator) Tick() {
	if g.countdown == 0 {
		return
	}
	g.countdown--
	if g.countdown == 0 {
		g.running = true
	}
}

// Dispatch executes one slot with the requested output and returns what
// was delivered and charged at the unit's configured fuel curve.
// Requests are clamped to the admissible set: below the minimum stable
// load the unit shuts down (or stays off), and a positive request while
// off triggers a cold start — paying StartupUSD once and, with a
// synchronization lag, delivering its first energy StartupLagSlots slots
// later. Requests during an in-progress start are ignored (the start is
// already committed).
func (g *Generator) Dispatch(request float64) Outcome {
	p := g.params
	if g.countdown > 0 {
		// Still synchronizing: no output yet, no further charges.
		return Outcome{}
	}
	// The minimum-stable-load guard uses the configured parameter, not
	// the window minimum: an off unit behind a startup lag has a closed
	// (0, 0) window, and a sub-min request must mean "stay off" there
	// too — not a billed cold start that can never hold its load.
	if request <= tol || request < p.MinLoadMWh-tol {
		// Below minimum stable load: shut down (or stay off).
		g.running = false
		return Outcome{}
	}
	var out Outcome
	if !g.running {
		out.StartupUSD = p.StartupUSD
		g.startupUSD += p.StartupUSD
		g.starts++
		if p.StartupLagSlots > 0 {
			g.countdown = p.StartupLagSlots
			return out
		}
		g.running = true
	}
	delivered := min(request, p.CapacityMWh)
	out.DeliveredMWh = delivered
	out.FuelUSD = p.FuelCost(delivered)
	out.CO2Kg = p.CO2KgPerMWh * delivered
	g.energyMWh += delivered
	g.fuelUSD += out.FuelUSD
	g.co2Kg += out.CO2Kg
	g.opSlots++
	return out
}
