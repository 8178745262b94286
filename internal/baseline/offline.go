package baseline

import (
	"fmt"

	"github.com/smartdpss/smartdpss/internal/lp"
	"github.com/smartdpss/smartdpss/internal/sim"
	"github.com/smartdpss/smartdpss/internal/trace"
)

// OfflineOptimal is the paper's clairvoyant benchmark (Sec. II-D): at each
// coarse boundary it solves one linear program over the upcoming interval
// with full knowledge of demand, renewable production and prices, then
// replays the per-slot plan. Battery state and any unserved backlog carry
// across intervals; every interval must serve its arrivals (plus inherited
// backlog) by its end, mirroring the single-interval scope of problem P2.
//
// Each interval LP is one staircase block over the interval
// (solveInterval), the same addStairBlock OfflineHorizon uses for the
// whole horizon, solved like every LP here on lp's sparse revised
// simplex. Consecutive interval LPs share one shape, so the controller's
// solver reuses every model and solver buffer across intervals and the
// whole sequence solves allocation-free after the first interval. These
// interval LPs are degenerate (serving the backlog earlier or later can
// be cost-neutral), and the golden paper figures pin the vertex the
// solver picks through the replayed mean delay: any change of pivot
// rule or model order can move that delay at equal cost (see the lp
// package documentation).
type OfflineOptimal struct {
	cfg Config
	set *trace.Set
	st  lpState

	// plan for the current interval, indexed by slot offset
	plan      []sim.Decision
	planStart int
}

var _ sim.Controller = (*OfflineOptimal)(nil)

// NewOfflineOptimal returns the per-interval clairvoyant benchmark over
// the given trace set, which must have passed trace.Set.Validate
// (engine.NewReplaySession validates each set once).
func NewOfflineOptimal(cfg Config, set *trace.Set) (*OfflineOptimal, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &OfflineOptimal{cfg: cfg, set: set}, nil
}

// Name implements sim.Controller.
func (o *OfflineOptimal) Name() string { return "OfflineOptimal" }

// CoarseSlots implements sim.Controller.
func (o *OfflineOptimal) CoarseSlots() int { return o.cfg.T }

// PlanCoarse solves the interval LP and returns its long-term purchase.
func (o *OfflineOptimal) PlanCoarse(obs sim.CoarseObs) float64 {
	gbef, plan, err := o.st.solveInterval(o.cfg, o.set, obs.Slot, obs.Slots, obs.Battery, obs.Backlog)
	if err != nil {
		// A solver failure leaves a defensive empty plan; the engine's
		// passive UPS and the emergency accounting absorb the slots.
		o.plan = o.st.decisions(obs.Slots)
		o.planStart = obs.Slot
		return 0
	}
	o.plan = plan
	o.planStart = obs.Slot
	return gbef
}

// PlanFine replays the solved plan. The returned Decision's GenerateUnits
// borrows a controller-owned buffer valid until the next PlanFine call.
func (o *OfflineOptimal) PlanFine(obs sim.FineObs) sim.Decision {
	idx := obs.Slot - o.planStart
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
func (o *OfflineOptimal) RecordOutcome(sim.Outcome) {}

// solveInterval solves the clairvoyant LP for the interval of n ≤ T
// slots from slot start, entered with battery level b0 and backlog q0:
// one staircase block over that window. It returns the long-term
// purchase and the per-slot plan (the plan borrows st's buffer and is
// valid until the next solve). By Lemma 1 the plan's
// real-time purchases are essentially unused at the optimum, but keeping
// them preserves feasibility when the flat gbef/n delivery cannot track
// peaky intra-interval demand.
func (st *lpState) solveInterval(cfg Config, set *trace.Set, start, n int, b0, q0 float64) (float64, []sim.Decision, error) {
	prob := st.problem()
	blk := st.addStairBlock(prob, cfg, set, stairWindow{start: start, n: n, b0: b0, q0: q0}, nil)
	sol, err := st.solve(prob)
	if err != nil {
		return 0, nil, fmt.Errorf("baseline: interval LP at %d: %w", start, err)
	}
	if sol.Status != lp.Optimal {
		return 0, nil, fmt.Errorf("baseline: interval LP at %d: %v", start, sol.Status)
	}
	plan := st.decisions(n)
	blk.readPlan(&sol, cfg.Battery, plan)
	return sol.Value(blk.gbef[0]), plan, nil
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
