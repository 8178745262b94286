package baseline

import (
	"fmt"
	"math"
	"testing"

	"github.com/smartdpss/smartdpss/internal/lp"
	"github.com/smartdpss/smartdpss/internal/sim"
	"github.com/smartdpss/smartdpss/internal/trace"
)

// solveIntervalChain is the chain-form interval LP that solveInterval's
// staircase block replaced, kept verbatim as the model oracle the
// staircase interval LP is checked against. It builds and solves the
// clairvoyant LP for slots [start, start+n), returning the long-term
// purchase and per-slot plan (the plan borrows st's buffer and is valid
// until the next solve).
//
// Variables per slot i: grt_i, u_i (backlog service), c_i (charge),
// d_i (discharge), w_i (waste), e_i (emergency); plus one gbef.
// By Lemma 1 grt is essentially unused at the optimum, but keeping it
// preserves feasibility when the flat gbef/T delivery cannot track peaky
// intra-interval demand.
func (st *lpState) solveIntervalChain(cfg Config, set *trace.Set, start, n int, b0, q0 float64) (float64, []sim.Decision, error) {
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

// chainIntervalCheck wraps an OfflineOptimal and solves the chain-form
// oracle at every coarse boundary from the same state, requiring the
// objective the staircase interval LP reached.
type chainIntervalCheck struct {
	*OfflineOptimal
	t      *testing.T
	chain  lpState
	checks int
}

func (c *chainIntervalCheck) PlanCoarse(obs sim.CoarseObs) float64 {
	gbef := c.OfflineOptimal.PlanCoarse(obs)
	if _, _, err := c.chain.solveIntervalChain(c.cfg, c.set, obs.Slot, obs.Slots, obs.Battery, obs.Backlog); err != nil {
		c.t.Fatalf("slot %d: chain oracle: %v", obs.Slot, err)
	}
	so, co := c.st.lastObjective, c.chain.lastObjective
	if math.Abs(so-co) > 1e-7*(1+math.Abs(co)) {
		c.t.Errorf("slot %d: staircase interval objective %.10g != chain objective %.10g (diff %g)",
			obs.Slot, so, co, so-co)
	}
	c.checks++
	return gbef
}

// TestIntervalStairMatchesChainObjective is the parity gate behind the
// fig6v re-baseline: at every coarse boundary of a 7-day OfflineOptimal
// replay, with and without a fleet, the staircase interval LP reaches
// the chain-form oracle's optimal objective. Only the vertex may differ
// (alternate optima).
func TestIntervalStairMatchesChainObjective(t *testing.T) {
	set := testTraces(t, 7)
	for _, fleet := range []bool{false, true} {
		cfg := DefaultConfig()
		if fleet {
			cfg.Fleet = testFleet()
		}
		o, err := NewOfflineOptimal(cfg, set)
		if err != nil {
			t.Fatal(err)
		}
		check := &chainIntervalCheck{OfflineOptimal: o, t: t}
		sc := simConfig(cfg)
		sc.Fleet = cfg.Fleet
		if _, err := sim.Run(sc, set, check); err != nil {
			t.Fatal(err)
		}
		if want := set.Horizon() / cfg.T; check.checks != want {
			t.Fatalf("fleet=%v: checked %d boundaries, want %d", fleet, check.checks, want)
		}
	}
}

// TestIntervalSolveAllocatesNothing pins the interval LP's memory model:
// once an lpState has solved one interval, the next interval of the same
// shape rebuilds the model, the standard form and the tableau in place
// and allocates nothing.
func TestIntervalSolveAllocatesNothing(t *testing.T) {
	cfg := DefaultConfig()
	set := testTraces(t, 2)
	var st lpState
	solve := func(start int) {
		if _, _, err := st.solveInterval(cfg, set, start, cfg.T, cfg.Battery.InitialMWh, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	solve(0)
	if allocs := testing.AllocsPerRun(5, func() { solve(cfg.T) }); allocs != 0 {
		t.Fatalf("second interval solve allocated %.1f times per run, want 0", allocs)
	}
}
