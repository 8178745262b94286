package baseline

import (
	"fmt"
	"math"

	"github.com/smartdpss/smartdpss/internal/lp"
	"github.com/smartdpss/smartdpss/internal/sim"
	"github.com/smartdpss/smartdpss/internal/trace"
)

// Lookahead is a receding-horizon (MPC) controller with W fine slots of
// perfect foresight — the "T-Step Lookahead" family the paper contrasts
// with in its related work ([29], [30]). At every fine slot it solves a
// linear program over the next W slots from the current battery and
// backlog state and executes only the first slot's decision; the
// long-term purchase is chosen from the same LP run at the interval
// boundary.
//
// Lookahead interpolates between the online regime (W = 1, essentially
// myopic) and the clairvoyant benchmarks (W → horizon): comparing it with
// SmartDPSS quantifies what perfect short-range forecasts would be worth
// over a forecast-free Lyapunov policy (experiment EXT-5).
type Lookahead struct {
	cfg    Config
	set    *trace.Set
	window int

	// Separate LP substrates for the two problem families the controller
	// solves: the coarse-boundary interval LP and the per-slot window LP.
	// Keeping them apart sizes each solver's buffers to its own problem
	// family, so both sequences solve allocation-free.
	coarse lpState
	fine   lpState
}

var _ sim.Controller = (*Lookahead)(nil)

// NewLookahead returns an MPC controller with a W-slot foresight window
// over the given trace set, which must have passed trace.Set.Validate
// (engine.NewReplaySession validates each set once).
func NewLookahead(cfg Config, set *trace.Set, window int) (*Lookahead, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if window < 1 {
		return nil, fmt.Errorf("baseline: lookahead window %d must be >= 1", window)
	}
	return &Lookahead{cfg: cfg, set: set, window: window}, nil
}

// Name implements sim.Controller.
func (l *Lookahead) Name() string { return fmt.Sprintf("Lookahead(%d)", l.window) }

// CoarseSlots implements sim.Controller.
func (l *Lookahead) CoarseSlots() int { return l.cfg.T }

// Window returns the foresight length in fine slots.
func (l *Lookahead) Window() int { return l.window }

// PlanCoarse picks gbef from the interval LP over the visible window,
// scaled up to the full interval when the window is shorter.
func (l *Lookahead) PlanCoarse(obs sim.CoarseObs) float64 {
	visible := min(l.window, obs.Slots)
	win := stairWindow{start: obs.Slot, n: visible, b0: obs.Battery, q0: obs.Backlog}
	gbef, _, err := l.coarse.solveStair(l.cfg, l.set, win)
	if err != nil {
		return 0
	}
	// Extrapolate the per-slot rate across the whole interval.
	perSlot := l.coarse.sol.Value(gbef[0]) / float64(visible)
	return perSlot * float64(obs.Slots)
}

// PlanFine re-solves the window LP from the current state (receding
// horizon) and executes its first slot.
func (l *Lookahead) PlanFine(obs *sim.FineObs) sim.Decision {
	dec, err := l.solveWindow(obs)
	if err != nil {
		// Degrade to a safe myopic decision: cover dds from the grid.
		need := max(0, obs.DemandDS-obs.LongTermDue-obs.Renewable)
		return sim.Decision{Grt: min(need, obs.RTHeadroom)}
	}
	return dec
}

// RecordOutcome implements sim.Controller; state is re-read every slot.
func (l *Lookahead) RecordOutcome(sim.Outcome) {}

// solveWindow builds the W-slot LP anchored at the current slot. The
// committed long-term delivery obs.LongTermDue is a constant for every
// visible slot (it holds for the rest of the interval; slots beyond the
// boundary see it as an estimate).
//
// Consecutive windows share one shape until the horizon truncates them,
// so every model and solver buffer is reused across the receding
// horizon and steady-state solves allocate nothing.
func (l *Lookahead) solveWindow(obs *sim.FineObs) (sim.Decision, error) {
	st := &l.fine
	bat := l.cfg.Battery
	inf := math.Inf(1)
	n := min(l.window, l.set.Horizon()-obs.Slot)
	if n < 1 {
		return sim.Decision{}, fmt.Errorf("baseline: empty window")
	}

	prob := st.problem()
	grt, u, c, d, w, e := st.varIDs(n)
	units := l.cfg.genUnits()
	var g [][][]lp.VarID
	if len(units) > 0 {
		g = make([][][]lp.VarID, n)
	}
	proxy := 0.0
	if bat.MaxChargeMWh > 0 {
		proxy = bat.OpCostUSD / max(bat.MaxChargeMWh, bat.MaxDischargeMWh)
	}
	for i := 0; i < n; i++ {
		slot := obs.Slot + i
		prt := l.set.PriceRT.At(slot)
		grt[i] = prob.AddVariable("", 0, max(0, obs.RTHeadroom), prt)
		u[i] = prob.AddVariable("", 0, l.cfg.SdtMaxMWh, 0)
		c[i] = prob.AddVariable("", 0, bat.MaxChargeMWh, proxy)
		d[i] = prob.AddVariable("", 0, bat.MaxDischargeMWh, proxy)
		w[i] = prob.AddVariable("", 0, inf, l.cfg.WasteCostUSD)
		e[i] = prob.AddVariable("", 0, inf, l.cfg.EmergencyCostUSD)
		if g != nil {
			g[i] = addFleetVars(prob, units, i, n)
		}
	}

	chain := st.chain[:0]
	serve := st.serve[:0]
	avail := obs.Backlog
	for i := 0; i < n; i++ {
		slot := obs.Slot + i
		dds := l.set.DemandDS.At(slot)
		r := l.set.Renewable.At(slot)

		// Balance with the committed flat delivery as a constant.
		balance := append(st.terms[:0],
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
		prob.AddConstraint(lp.EQ, dds-r-obs.LongTermDue, balance...)
		// Supply cap.
		smax := append(st.terms[:0], lp.Term{Var: grt[i], Coeff: 1})
		if g != nil {
			smax = appendFleetTerms(smax, g[i])
		}
		st.terms = smax
		prob.AddConstraint(lp.LE, l.cfg.SmaxMWh-r-obs.LongTermDue, smax...)

		// Battery trajectory bounds from the live level, over the
		// incrementally grown j ≤ i prefix.
		chain = append(chain,
			lp.Term{Var: c[i], Coeff: bat.ChargeEff},
			lp.Term{Var: d[i], Coeff: -bat.DischargeEff},
		)
		prob.AddConstraint(lp.GE, bat.MinLevelMWh-obs.Battery, chain...)
		prob.AddConstraint(lp.LE, bat.CapacityMWh-obs.Battery, chain...)

		// Service causality from the live backlog.
		if i > 0 {
			avail += l.set.DemandDT.At(obs.Slot + i - 1)
		}
		serve = append(serve, lp.Term{Var: u[i], Coeff: 1})
		prob.AddConstraint(lp.LE, avail, serve...)
	}
	st.chain, st.serve = chain, serve

	// Window deadline: all visible demand served by the window end
	// (penalized slack keeps degenerate windows feasible). The running
	// avail already equals backlog plus all arrivals before the last
	// visible slot.
	total := avail
	slack := prob.AddVariable("slack", 0, inf, l.cfg.EmergencyCostUSD)
	endTerms := append(st.terms[:0], serve...)
	endTerms = append(endTerms, lp.Term{Var: slack, Coeff: 1})
	st.terms = endTerms
	prob.AddConstraint(lp.GE, total, endTerms...)

	sol, err := st.solve(prob)
	if err != nil {
		return sim.Decision{}, err
	}
	if sol.Status != lp.Optimal {
		return sim.Decision{}, fmt.Errorf("baseline: window LP %v", sol.Status)
	}

	dec := sim.Decision{
		Grt:       sol.Value(grt[0]),
		ServeDT:   min(sol.Value(u[0]), min(obs.Backlog, obs.SdtMax)),
		Charge:    min(sol.Value(c[0]), obs.MaxCharge),
		Discharge: min(sol.Value(d[0]), obs.MaxDischarge),
	}
	if g != nil {
		dec.GenerateUnits = st.clampPlan(genPlanUnits(&sol, g[0]), obs.GenUnits)
	}
	netPlanChargeDischarge(&dec, bat.ChargeEff, bat.DischargeEff)
	return dec, nil
}
