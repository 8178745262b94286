package baseline

import (
	"fmt"
	"math"
	"testing"

	"github.com/smartdpss/smartdpss/internal/generator"
	"github.com/smartdpss/smartdpss/internal/lp"
	"github.com/smartdpss/smartdpss/internal/sim"
	"github.com/smartdpss/smartdpss/internal/trace"
)

// testFleet is a small two-unit fleet exercising the commitment-linking
// rows (startup cost, minimum stable load) in the horizon LPs.
func testFleet() []generator.Params {
	return []generator.Params{
		{CapacityMWh: 1.5, MinLoadMWh: 0.3, FuelUSDPerMWh: 40, StartupUSD: 20},
		{CapacityMWh: 0.8, FuelUSDPerMWh: 25},
	}
}

// newChainHorizon solves the whole-horizon LP in the legacy chain
// formulation (solveChain below), the model oracle the staircase form
// is checked against.
func newChainHorizon(t *testing.T, cfg Config, set *trace.Set) *Offline {
	t.Helper()
	o := &Offline{cfg: cfg, set: set}
	if err := o.solveChain(); err != nil {
		t.Fatal(err)
	}
	return o
}

// solveChain builds and solves the legacy chain formulation. The
// structure matches the interval LP, with one gbef per coarse interval,
// battery dynamics and service causality chained across the whole
// horizon as j ≤ i prefix rows, and the same "served by interval end"
// deadline so the two offline benchmarks differ only in cross-interval
// planning.
func (o *Offline) solveChain() error {
	cfg, set := o.cfg, o.set
	st := &o.st
	bat := cfg.Battery
	inf := math.Inf(1)
	H := set.Horizon()
	T := cfg.T
	K := (H + T - 1) / T

	prob := st.problem()

	gbef := make([]lp.VarID, K)
	intervalLen := make([]int, K)
	for k := 0; k < K; k++ {
		n := min(T, H-k*T)
		intervalLen[k] = n
		plt := set.PriceLT.At(k * T)
		gbef[k] = prob.AddVariable("gbef", 0, float64(n)*cfg.PgridMWh, plt)
	}

	grt, u, c, d, w, e := st.varIDs(H)
	units := cfg.genUnits()
	var g [][][]lp.VarID
	if len(units) > 0 {
		g = make([][][]lp.VarID, H)
	}
	proxy := 0.0
	if bat.MaxChargeMWh > 0 {
		proxy = bat.OpCostUSD / math.Max(bat.MaxChargeMWh, bat.MaxDischargeMWh)
	}
	for i := 0; i < H; i++ {
		prt := set.PriceRT.At(i)
		grt[i] = prob.AddVariable("", 0, cfg.PgridMWh, prt)
		u[i] = prob.AddVariable("", 0, cfg.SdtMaxMWh, 0)
		c[i] = prob.AddVariable("", 0, bat.MaxChargeMWh, proxy)
		d[i] = prob.AddVariable("", 0, bat.MaxDischargeMWh, proxy)
		w[i] = prob.AddVariable("", 0, inf, cfg.WasteCostUSD)
		e[i] = prob.AddVariable("", 0, inf, cfg.EmergencyCostUSD)
		if g != nil {
			g[i] = addFleetVars(prob, units, i, T)
		}
	}

	b0 := bat.InitialMWh
	chain := st.chain[:0]
	serve := st.serve[:0]
	avail := 0.0
	for i := 0; i < H; i++ {
		k := i / T
		invN := 1.0 / float64(intervalLen[k])
		dds := set.DemandDS.At(i)
		r := set.Renewable.At(i)

		balance := append(st.terms[:0],
			lp.Term{Var: gbef[k], Coeff: invN},
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
		prob.AddConstraint(lp.LE, cfg.PgridMWh,
			lp.Term{Var: gbef[k], Coeff: invN},
			lp.Term{Var: grt[i], Coeff: 1},
		)
		smax := append(st.terms[:0],
			lp.Term{Var: gbef[k], Coeff: invN},
			lp.Term{Var: grt[i], Coeff: 1},
		)
		if g != nil {
			smax = appendFleetTerms(smax, g[i])
		}
		st.terms = smax
		prob.AddConstraint(lp.LE, cfg.SmaxMWh-r, smax...)

		// Battery level and service causality share the incrementally
		// grown j ≤ i prefixes (same term order and accumulation as the
		// historical per-constraint rebuild).
		chain = append(chain,
			lp.Term{Var: c[i], Coeff: bat.ChargeEff},
			lp.Term{Var: d[i], Coeff: -bat.DischargeEff},
		)
		prob.AddConstraint(lp.GE, bat.MinLevelMWh-b0, chain...)
		prob.AddConstraint(lp.LE, bat.CapacityMWh-b0, chain...)

		avail += set.DemandDT.At(i)
		serve = append(serve, lp.Term{Var: u[i], Coeff: 1})
		prob.AddConstraint(lp.LE, avail, serve...)
	}
	st.chain, st.serve = chain, serve

	// Per-interval deadlines with a penalized slack each.
	arrived := 0.0
	for k := 0; k < K; k++ {
		end := k*T + intervalLen[k]
		for i := k * T; i < end; i++ {
			arrived += set.DemandDT.At(i)
		}
		slack := prob.AddVariable("slack", 0, inf, cfg.EmergencyCostUSD)
		terms := append(st.terms[:0], serve[:end]...)
		terms = append(terms, lp.Term{Var: slack, Coeff: 1})
		st.terms = terms
		prob.AddConstraint(lp.GE, arrived, terms...)
	}

	sol, err := st.solve(prob)
	if err != nil {
		return fmt.Errorf("baseline: horizon LP: %w", err)
	}
	if sol.Status != lp.Optimal {
		return fmt.Errorf("baseline: horizon LP: %v", sol.Status)
	}

	o.gbef = gbef
	o.plan = make([]sim.Decision, H)
	for i := 0; i < H; i++ {
		dec := sim.Decision{
			Grt:       sol.Value(grt[i]),
			ServeDT:   sol.Value(u[i]),
			Charge:    sol.Value(c[i]),
			Discharge: sol.Value(d[i]),
		}
		if g != nil {
			dec.GenerateUnits = genPlanUnits(&sol, g[i])
		}
		netPlanChargeDischarge(&dec, bat.ChargeEff, bat.DischargeEff)
		o.plan[i] = dec
	}
	return nil
}

// TestHorizonStairMatchesChainObjective is the baseline-level model
// parity gate: the staircase state-variable form and the legacy chain
// form (O(n²) prefix rows) must reach the same optimal LP objective (the
// vertex may differ — alternate optima), across horizon lengths and
// fleet configurations.
func TestHorizonStairMatchesChainObjective(t *testing.T) {
	for _, days := range []int{1, 3} {
		set := testTraces(t, days)
		for _, fleet := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.T = 12
			if fleet {
				cfg.Fleet = testFleet()
			}

			stair, err := NewOfflineHorizon(cfg, set)
			if err != nil {
				t.Fatal(err)
			}
			chain := newChainHorizon(t, cfg, set)

			so := stair.st.sol.Objective
			co := chain.st.sol.Objective
			tol := 1e-7 * (1 + math.Abs(co))
			if math.Abs(so-co) > tol {
				t.Errorf("days=%d fleet=%v: staircase objective %.10g != chain objective %.10g (diff %g)",
					days, fleet, so, co, so-co)
			}
		}
	}
}

// TestHorizonStairPlanReplaysComparably: beyond objective parity, the
// replayed (executed) cost of the staircase plan must be within clamping
// noise of the chain plan's — alternate optima may pick different
// vertices, but not materially worse schedules.
func TestHorizonStairPlanReplaysComparably(t *testing.T) {
	cfg := DefaultConfig()
	cfg.T = 12
	set := testTraces(t, 3)

	stair, err := NewOfflineHorizon(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	stairRep, err := sim.Run(simConfig(cfg), set, stair)
	if err != nil {
		t.Fatal(err)
	}
	chain := newChainHorizon(t, cfg, set)
	chainRep, err := sim.Run(simConfig(cfg), set, chain)
	if err != nil {
		t.Fatal(err)
	}
	if stairRep.TotalCostUSD > chainRep.TotalCostUSD*1.02+1 {
		t.Errorf("staircase replay $%.2f materially worse than chain replay $%.2f",
			stairRep.TotalCostUSD, chainRep.TotalCostUSD)
	}
	if stairRep.UnservedMWh > 1e-6 {
		t.Errorf("staircase plan left %g MWh unserved", stairRep.UnservedMWh)
	}
}
