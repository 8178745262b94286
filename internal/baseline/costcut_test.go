package baseline_test

import (
	"math"
	"strconv"
	"testing"

	"github.com/smartdpss/smartdpss/internal/baseline"
	"github.com/smartdpss/smartdpss/internal/engine"
	"github.com/smartdpss/smartdpss/internal/lp"
	"github.com/smartdpss/smartdpss/internal/trace"
)

// cutSlack is the cost cut's relative slack over the interval optimum.
const cutSlack = 1e-9

// costCutLP rebuilds OfflineOptimal's interval LP for the n slots from
// start, entered with battery level b0 and backlog q0, in
// addStairBlock's variable and row order (no fleet, no routing). With cut false it
// carries the block's own costs. With cut true those costs move into one
// dense row Σ cⱼxⱼ ≤ z·(1+cutSlack), the objective becomes −Σ Uᵢ over
// the cumulative-served columns (serve as early as the cost optimum z
// allows), and the cut row's terms are returned.
func costCutLP(cfg baseline.Config, set *trace.Set, start, n int, b0, q0 float64, cut bool, z float64) (*lp.Problem, []lp.Term) {
	bat := cfg.Battery
	inf := math.Inf(1)
	proxy := bat.OpCostUSD / math.Max(bat.MaxChargeMWh, bat.MaxDischargeMWh)
	p := lp.NewProblem()
	var costs []lp.Term
	add := func(lo, hi, cost float64) lp.VarID {
		if !cut {
			return p.AddVariable("", lo, hi, cost)
		}
		v := p.AddVariable("", lo, hi, 0)
		if cost != 0 {
			costs = append(costs, lp.Term{Var: v, Coeff: cost})
		}
		return v
	}
	type slot struct{ grt, u, c, d, w, e, b, us lp.VarID }
	gbef := add(0, float64(n)*cfg.PgridMWh, set.PriceLT.At(start))
	vs := make([]slot, n)
	avail := q0
	for i := range vs {
		at := start + i
		avail += set.DemandDT.At(at)
		vs[i] = slot{
			grt: add(0, cfg.PgridMWh, set.PriceRT.At(at)),
			u:   add(0, cfg.SdtMaxMWh, 0),
			c:   add(0, bat.MaxChargeMWh, proxy),
			d:   add(0, bat.MaxDischargeMWh, proxy),
			w:   add(0, inf, cfg.WasteCostUSD),
			e:   add(0, inf, cfg.EmergencyCostUSD),
			b:   add(bat.MinLevelMWh, bat.CapacityMWh, 0),
		}
		if cut {
			vs[i].us = p.AddVariable("U", 0, avail, -1)
		} else {
			vs[i].us = add(0, avail, 0)
		}
	}
	inv := 1 / float64(n)
	for i, v := range vs {
		r := set.Renewable.At(start + i)
		p.AddConstraint(lp.EQ, set.DemandDS.At(start+i)-r,
			lp.Term{Var: gbef, Coeff: inv}, lp.Term{Var: v.grt, Coeff: 1}, lp.Term{Var: v.d, Coeff: 1},
			lp.Term{Var: v.e, Coeff: 1}, lp.Term{Var: v.u, Coeff: -1}, lp.Term{Var: v.c, Coeff: -1},
			lp.Term{Var: v.w, Coeff: -1})
		p.AddConstraint(lp.LE, cfg.PgridMWh, lp.Term{Var: gbef, Coeff: inv}, lp.Term{Var: v.grt, Coeff: 1})
		p.AddConstraint(lp.LE, cfg.SmaxMWh-r, lp.Term{Var: gbef, Coeff: inv}, lp.Term{Var: v.grt, Coeff: 1})
		if i == 0 {
			p.AddConstraint(lp.EQ, b0, lp.Term{Var: v.b, Coeff: 1},
				lp.Term{Var: v.c, Coeff: -bat.ChargeEff}, lp.Term{Var: v.d, Coeff: bat.DischargeEff})
			p.AddConstraint(lp.EQ, 0, lp.Term{Var: v.us, Coeff: 1}, lp.Term{Var: v.u, Coeff: -1})
			continue
		}
		p.AddConstraint(lp.EQ, 0, lp.Term{Var: v.b, Coeff: 1}, lp.Term{Var: vs[i-1].b, Coeff: -1},
			lp.Term{Var: v.c, Coeff: -bat.ChargeEff}, lp.Term{Var: v.d, Coeff: bat.DischargeEff})
		p.AddConstraint(lp.EQ, 0, lp.Term{Var: v.us, Coeff: 1}, lp.Term{Var: vs[i-1].us, Coeff: -1},
			lp.Term{Var: v.u, Coeff: -1})
	}
	slack := add(0, inf, cfg.EmergencyCostUSD)
	p.AddConstraint(lp.GE, avail, lp.Term{Var: vs[n-1].us, Coeff: 1}, lp.Term{Var: slack, Coeff: 1})
	if cut {
		p.AddConstraint(lp.LE, z*(1+cutSlack), costs...)
	}
	return p, costs
}

// TestIntervalCostCutSolvesVerified is the case that exposed the dense
// tableau's defect: OfflineOptimal's interval LP at coarse boundary 408
// of the golden scope (seed 1, 31 days, default options, battery and
// backlog from the replay), restated with the cost cut Σ cⱼxⱼ ≤
// z*·(1+1e-9) and the objective −Σ Uᵢ. Its cut row carries coefficients
// from 0.2 (the battery proxy) to 1e6 (the emergency price). The dense
// tableau, the production solver for this LP until the sparse revised
// simplex became the only one, answered Optimal at a point whose cut-row
// left-hand side was 928.8 against a right-hand side of 896.6. The one
// solve path must return a verified Optimal; the objective it reaches
// is pinned (the replay state, battery at its 0.033 MWh floor and
// 0.475 MWh of backlog, is the same on both solvers).
func TestIntervalCostCutSolvesVerified(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 408 slots of the golden scope")
	}
	const boundary = 408
	traces, err := engine.GenerateTraces(engine.DefaultTraceConfig())
	if err != nil {
		t.Fatal(err)
	}
	opts := engine.DefaultOptions()
	cfg, set := opts.BaselineConfig(), traces.Set()
	s, err := engine.NewReplaySession(engine.PolicyOfflineOptimal, opts, traces)
	if err != nil {
		t.Fatal(err)
	}
	for s.Slot() < boundary {
		if _, err := s.StepReplay(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Status()
	b0, q0 := st.BatteryMWh, st.BacklogMWh

	// The rebuilt model is the production one: same optimum, same pivots.
	z, pivots, err := baseline.IntervalLP(cfg, set, boundary, cfg.T, b0, q0)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := costCutLP(cfg, set, boundary, cfg.T, b0, q0, false, 0)
	var solver lp.Solver
	sol, err := solver.Solve(base)
	if err != nil || sol.Objective != z || sol.Iterations != pivots {
		t.Fatalf("rebuilt interval LP: %v, objective %v in %d pivots; production %v in %d",
			err, sol.Objective, sol.Iterations, z, pivots)
	}

	p, cut := costCutLP(cfg, set, boundary, cfg.T, b0, q0, true, z)
	if p.NumVariables() != 194 || p.NumConstraints() != 122 {
		t.Fatalf("cost-cut LP has %d columns and %d rows, want 194 and 122", p.NumVariables(), p.NumConstraints())
	}
	lo, hi := math.Inf(1), 0.0
	for _, c := range cut {
		lo, hi = math.Min(lo, c.Coeff), math.Max(hi, c.Coeff)
	}
	if hi/lo < 1e6 {
		t.Fatalf("cut row coefficients span only [%g, %g]", lo, hi)
	}
	sol, err = solver.Solve(p)
	if err != nil || sol.Status != lp.Optimal {
		t.Fatalf("cost-cut LP: %v %v, want a verified optimum", err, sol.Status)
	}
	lhs := 0.0
	for _, c := range cut {
		lhs += c.Coeff * sol.Value(c.Var)
	}
	if rhs := z * (1 + cutSlack); lhs > rhs+1e-7*(1+rhs) {
		t.Fatalf("cut row lhs %.10g exceeds rhs %.10g", lhs, rhs)
	}
	if got, want := strconv.FormatFloat(sol.Objective, 'f', 2, 64), "-18.92"; got != want {
		t.Errorf("cost-cut LP objective %s (%.17g), pinned %s", got, sol.Objective, want)
	}
}
