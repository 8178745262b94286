package baseline

import (
	"fmt"
	"math"

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
// Consecutive interval LPs share one shape (T slots, the same constraint
// pattern), so the controller's solver reuses every model and tableau
// buffer across intervals and the whole sequence solves allocation-free
// after the first interval. The solves themselves run the exact
// row-formulation pivot sequence — not the bounded-variable simplex —
// so each interval reproduces the historical optimal vertex bit for
// bit: these interval LPs are degenerate (serving the backlog earlier
// or later can be cost-neutral), the golden paper figures pin this
// controller's replayed schedule byte for byte, and a
// different-but-equally-optimal vertex would shift the reported delay
// (see lpState and the lp package documentation).
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
// the given (already validated) trace set.
func NewOfflineOptimal(cfg Config, set *trace.Set) (*OfflineOptimal, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	o := &OfflineOptimal{cfg: cfg, set: set}
	// Golden-pinned vertex: keep the row-per-bound formulation (see the
	// type comment).
	o.st.rowBounds = true
	return o, nil
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
	dec.ServeDT = math.Min(dec.ServeDT, math.Min(obs.Backlog, obs.SdtMax))
	dec.Charge = math.Min(dec.Charge, obs.MaxCharge)
	dec.Discharge = math.Min(dec.Discharge, obs.MaxDischarge)
	dec.GenerateUnits = o.st.clampPlan(dec.GenerateUnits, obs.GenUnits)
	return dec
}

// RecordOutcome implements sim.Controller; the plan is precomputed.
func (o *OfflineOptimal) RecordOutcome(sim.Outcome) {}

// solveInterval builds and solves the clairvoyant LP for slots
// [start, start+n), returning the long-term purchase and per-slot plan
// (the plan borrows st's buffer and is valid until the next solve).
//
// Variables per slot i: grt_i, u_i (backlog service), c_i (charge),
// d_i (discharge), w_i (waste), e_i (emergency); plus one gbef.
// By Lemma 1 grt is essentially unused at the optimum, but keeping it
// preserves feasibility when the flat gbef/T delivery cannot track peaky
// intra-interval demand.
func (st *lpState) solveInterval(cfg Config, set *trace.Set, start, n int, b0, q0 float64) (float64, []sim.Decision, error) {
	prob := st.problem()
	bat := cfg.Battery
	inf := math.Inf(1)

	// gbef is paid at plt per MWh and delivered evenly (Cost(τ) sums
	// gbef/T·plt across the interval, totalling gbef·plt).
	plt := set.PriceLT.At(start)
	gbef := prob.AddVariable("gbef", 0, float64(n)*cfg.PgridMWh, plt)

	grt, u, c, d, w, e := st.varIDs(n)
	units := cfg.genUnits()
	var g [][][]lp.VarID
	if len(units) > 0 {
		g = make([][][]lp.VarID, n)
	}

	// The linear battery-operation proxy (see package docs).
	proxy := 0.0
	if bat.MaxChargeMWh > 0 {
		proxy = bat.OpCostUSD / math.Max(bat.MaxChargeMWh, bat.MaxDischargeMWh)
	}

	totalArrivals := q0
	for i := 0; i < n; i++ {
		slot := start + i
		prt := set.PriceRT.At(slot)
		grt[i] = prob.AddVariable("", 0, cfg.PgridMWh, prt)
		u[i] = prob.AddVariable("", 0, cfg.SdtMaxMWh, 0)
		c[i] = prob.AddVariable("", 0, bat.MaxChargeMWh, proxy)
		d[i] = prob.AddVariable("", 0, bat.MaxDischargeMWh, proxy)
		w[i] = prob.AddVariable("", 0, inf, cfg.WasteCostUSD)
		e[i] = prob.AddVariable("", 0, inf, cfg.EmergencyCostUSD)
		if g != nil {
			g[i] = addFleetVars(prob, units, i, n, set.FuelScaleAt(slot))
		}
		totalArrivals += set.DemandDT.At(slot)
	}

	invN := 1.0 / float64(n)
	chain := st.chain[:0]
	serve := st.serve[:0]
	avail := q0
	for i := 0; i < n; i++ {
		slot := start + i
		dds := set.DemandDS.At(slot)
		r := set.Renewable.At(slot)

		// Balance: gbef/n + r + grt + d + g + e = dds + u + c + w.
		balance := append(st.terms[:0],
			lp.Term{Var: gbef, Coeff: invN},
			lp.Term{Var: grt[i], Coeff: 1},
			lp.Term{Var: d[i], Coeff: 1},
			lp.Term{Var: e[i], Coeff: 1},
			lp.Term{Var: u[i], Coeff: -1},
			lp.Term{Var: c[i], Coeff: -1},
			lp.Term{Var: w[i], Coeff: -1},
		)
		if g != nil {
			balance = appendFleetTerms(balance, g[i])
		}
		st.terms = balance
		prob.AddConstraint(lp.EQ, dds-r, balance...)

		// Grid cap: gbef/n + grt_i ≤ Pgrid.
		prob.AddConstraint(lp.LE, cfg.PgridMWh,
			lp.Term{Var: gbef, Coeff: invN},
			lp.Term{Var: grt[i], Coeff: 1},
		)
		// Supply cap: gbef/n + grt_i + r_i + Σg_i ≤ Smax.
		smax := append(st.terms[:0],
			lp.Term{Var: gbef, Coeff: invN},
			lp.Term{Var: grt[i], Coeff: 1},
		)
		if g != nil {
			smax = appendFleetTerms(smax, g[i])
		}
		st.terms = smax
		prob.AddConstraint(lp.LE, cfg.SmaxMWh-r, smax...)

		// Battery level bounds: Bmin ≤ b0 + Σ(ηc·c − ηd·d) ≤ Bmax. The
		// prefix terms grow incrementally — constraint i shares the
		// j ≤ i chain with every earlier slot.
		chain = append(chain,
			lp.Term{Var: c[i], Coeff: bat.ChargeEff},
			lp.Term{Var: d[i], Coeff: -bat.DischargeEff},
		)
		prob.AddConstraint(lp.GE, bat.MinLevelMWh-b0, chain...)
		prob.AddConstraint(lp.LE, bat.CapacityMWh-b0, chain...)

		// Service causality: Σ_{j≤i} u_j ≤ q0 + Σ_{j≤i} ddt_j. The
		// right-hand side is the same left-to-right accumulation the
		// per-constraint rebuild produced, so the coefficients are
		// bit-identical.
		avail += set.DemandDT.At(slot)
		serve = append(serve, lp.Term{Var: u[i], Coeff: 1})
		prob.AddConstraint(lp.LE, avail, serve...)
	}
	st.chain, st.serve = chain, serve

	// Interval deadline: everything arrived must be served by the end,
	// with a heavily penalized slack for physically infeasible intervals.
	slack := prob.AddVariable("slack", 0, inf, cfg.EmergencyCostUSD)
	endTerms := append(st.terms[:0], serve...)
	endTerms = append(endTerms, lp.Term{Var: slack, Coeff: 1})
	st.terms = endTerms
	prob.AddConstraint(lp.EQ, totalArrivals, endTerms...)

	sol, err := st.solve(prob)
	if err != nil {
		return 0, nil, fmt.Errorf("baseline: interval LP at %d: %w", start, err)
	}
	if sol.Status != lp.Optimal {
		return 0, nil, fmt.Errorf("baseline: interval LP at %d: %v", start, sol.Status)
	}

	plan := st.decisions(n)
	for i := 0; i < n; i++ {
		plan[i] = sim.Decision{
			Grt:       sol.Value(grt[i]),
			ServeDT:   sol.Value(u[i]),
			Charge:    sol.Value(c[i]),
			Discharge: sol.Value(d[i]),
		}
		if g != nil {
			plan[i].GenerateUnits = genPlanUnits(&sol, g[i])
		}
		netPlanChargeDischarge(&plan[i], bat.ChargeEff, bat.DischargeEff)
	}
	return sol.Value(gbef), plan, nil
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
