package baseline

import (
	"fmt"

	"github.com/smartdpss/smartdpss/internal/lp"
	"github.com/smartdpss/smartdpss/internal/sim"
	"github.com/smartdpss/smartdpss/internal/trace"
)

// Offline is the clairvoyant plan-and-replay benchmark: it solves one
// staircase LP (addStairBlock) over a window of fine slots with full
// knowledge of demand, renewable production and prices, replays the
// plan's long-term purchases and per-slot decisions, and plans the next
// window from the live battery level and backlog when the plan runs out
// (a replay session's horizon is its trace set's). Two windows give the
// two benchmarks:
//
//   - NewOfflineOptimal plans each coarse interval at its boundary, the
//     paper's benchmark (Sec. II-D). Battery state and any unserved
//     backlog carry across intervals; every interval must serve its
//     arrivals (plus inherited backlog) by its end, mirroring the
//     single-interval scope of problem P2. Consecutive interval LPs
//     share one shape, so the solver reuses every model and solver
//     buffer and the sequence solves allocation-free after the first
//     interval. These LPs are degenerate (serving the backlog earlier or
//     later can be cost-neutral), and the golden paper figures pin the
//     vertex the solver picks through the replayed mean delay: any
//     change of pivot rule or model order can move that delay at equal
//     cost (see the lp package documentation).
//   - NewOfflineHorizon plans the whole horizon once, in the
//     constructor, with a long-term purchase per coarse interval and
//     cross-interval battery planning; it lower-bounds the per-interval
//     plan. The staircase keeps the constraint matrix linear in the
//     horizon, so lp's sparse revised simplex reaches annual (8760 slot)
//     studies.
type Offline struct {
	name   string
	cfg    Config
	set    *trace.Set
	window int // fine slots one plan covers
	st     lpState

	// The current plan from slot start: the long-term purchase variable
	// per coarse interval, whose value st.sol holds, and the decision per
	// fine slot. Both borrow st's buffers.
	start int
	gbef  []lp.VarID
	plan  []sim.Decision
}

var _ sim.Controller = (*Offline)(nil)

// NewOfflineOptimal returns the per-interval clairvoyant benchmark over
// the given trace set, which must have passed trace.Set.Validate
// (engine.NewReplaySession validates each set once).
func NewOfflineOptimal(cfg Config, set *trace.Set) (*Offline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Offline{name: "OfflineOptimal", cfg: cfg, set: set, window: cfg.T}, nil
}

// NewOfflineHorizon solves the whole-horizon LP over the given trace set
// and returns the replaying controller, or the solver's error. The set
// must have passed trace.Set.Validate.
func NewOfflineHorizon(cfg Config, set *trace.Set) (*Offline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	o := &Offline{name: "OfflineHorizon", cfg: cfg, set: set, window: set.Horizon()}
	if err := o.replan(0, cfg.Battery.InitialMWh, 0); err != nil {
		return nil, err
	}
	return o, nil
}

// Name implements sim.Controller.
func (o *Offline) Name() string { return o.name }

// CoarseSlots implements sim.Controller.
func (o *Offline) CoarseSlots() int { return o.cfg.T }

// PlanCoarse plans the next window when the current plan has run out and
// returns the plan's long-term purchase for this interval.
func (o *Offline) PlanCoarse(obs sim.CoarseObs) float64 {
	if obs.Slot >= o.start+len(o.plan) {
		// A solver failure leaves a defensive empty plan; the engine's
		// passive UPS and the emergency accounting absorb the slots.
		_ = o.replan(obs.Slot, obs.Battery, obs.Backlog)
	}
	k := (obs.Slot - o.start) / o.cfg.T
	if k < 0 || k >= len(o.gbef) {
		return 0
	}
	return o.st.sol.Value(o.gbef[k])
}

// replan solves the window from slot, entered with battery level b0 and
// backlog q0. On a solver error the plan is empty: no purchase and zero
// decisions over the window.
func (o *Offline) replan(slot int, b0, q0 float64) error {
	win := stairWindow{start: slot, n: min(o.window, o.set.Horizon()-slot), b0: b0, q0: q0}
	o.start = slot
	var err error
	if o.gbef, o.plan, err = o.st.solveStair(o.cfg, o.set, win); err != nil {
		o.gbef, o.plan = nil, o.st.decisions(win.n)
	}
	return err
}

// PlanFine replays the solved plan. The returned Decision's GenerateUnits
// borrows a controller-owned buffer valid until the next PlanFine call.
func (o *Offline) PlanFine(obs *sim.FineObs) sim.Decision {
	idx := obs.Slot - o.start
	if idx < 0 || idx >= len(o.plan) {
		return sim.Decision{}
	}
	dec := o.plan[idx]
	// Guard against drift between the planned and actual backlog, and
	// clamp the relaxed per-unit fleet plan to the units' admissible
	// requests (the engine enforces min-load and startup physics on
	// execution).
	dec.ServeDT = min(dec.ServeDT, min(obs.Backlog, obs.SdtMax))
	dec.Charge = min(dec.Charge, obs.MaxCharge)
	dec.Discharge = min(dec.Discharge, obs.MaxDischarge)
	dec.GenerateUnits = o.st.clampPlan(dec.GenerateUnits, obs.GenUnits)
	return dec
}

// RecordOutcome implements sim.Controller; the plan is precomputed.
func (o *Offline) RecordOutcome(sim.Outcome) {}

// solveStair solves one staircase block over win. It returns the
// block's long-term purchase variable per coarse interval, whose values
// st.sol holds, and its per-slot plan; both borrow st's buffers and are
// valid until the next solve. By Lemma 1 the plan's real-time purchases
// are essentially unused at the optimum, but keeping them preserves
// feasibility when the flat gbef/n delivery cannot track peaky
// intra-interval demand.
func (st *lpState) solveStair(cfg Config, set *trace.Set, win stairWindow) ([]lp.VarID, []sim.Decision, error) {
	prob := st.problem()
	blk := st.addStairBlock(prob, cfg, set, win, nil)
	sol, err := st.solve(prob)
	if err != nil {
		return nil, nil, fmt.Errorf("baseline: staircase LP from slot %d: %w", win.start, err)
	}
	if sol.Status != lp.Optimal {
		return nil, nil, fmt.Errorf("baseline: staircase LP from slot %d: %v", win.start, sol.Status)
	}
	plan := st.decisions(win.n)
	blk.readPlan(&sol, cfg.Battery, plan)
	return blk.gbef, plan, nil
}

// netPlanChargeDischarge replaces a simultaneous charge+discharge by the
// pure action with the same stored-energy effect ηc·brc − ηd·bdc. The LP
// can otherwise "pump" the battery (charge and discharge in one slot) to
// burn surplus energy for less than the waste price; the executed schedule
// must satisfy brc(τ)·bdc(τ) ≡ 0 and keep the planned battery trajectory,
// so the conversion goes through the stored-energy delta and the engine's
// balance residual absorbs the freed energy as waste.
func netPlanChargeDischarge(dec *sim.Decision, etaC, etaD float64) {
	if dec.Charge <= 1e-12 || dec.Discharge <= 1e-12 {
		return
	}
	delta := etaC*dec.Charge - etaD*dec.Discharge
	if delta >= 0 {
		dec.Charge = delta / etaC
		dec.Discharge = 0
	} else {
		dec.Discharge = -delta / etaD
		dec.Charge = 0
	}
}
