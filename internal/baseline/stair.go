package baseline

import (
	"math"

	"github.com/smartdpss/smartdpss/internal/battery"
	"github.com/smartdpss/smartdpss/internal/lp"
	"github.com/smartdpss/smartdpss/internal/sim"
	"github.com/smartdpss/smartdpss/internal/trace"
)

// stairBlock holds the variable ids of one site's staircase block that
// callers read back after the solve.
type stairBlock struct {
	gbef         []lp.VarID     // long-term purchase per coarse interval
	grt, u, c, d []lp.VarID     // real-time purchase, service, charge, discharge per slot
	g            [][][]lp.VarID // per slot, unit and fuel segment; nil without a fleet
	out, in      []lp.VarID     // routing pair per slot; nil without routing
}

// readPlan writes the block's solved per-slot decisions into plan, one
// entry per slot of its window.
func (b *stairBlock) readPlan(sol *lp.Solution, bat battery.Params, plan []sim.Decision) {
	for i := range plan {
		dec := sim.Decision{
			Grt:       sol.Value(b.grt[i]),
			ServeDT:   sol.Value(b.u[i]),
			Charge:    sol.Value(b.c[i]),
			Discharge: sol.Value(b.d[i]),
		}
		if b.g != nil {
			dec.GenerateUnits = genPlanUnits(sol, b.g[i])
		}
		netPlanChargeDischarge(&dec, bat.ChargeEff, bat.DischargeEff)
		plan[i] = dec
	}
}

// stairWindow is the span one staircase block plans: n slots from slot
// start, from battery level b0 with backlog q0 carried in. Its coarse
// intervals are T-slot runs from start; the last may be shorter.
type stairWindow struct {
	start, n int
	b0, q0   float64
}

// horizonWindow is the whole horizon of set from the configured initial
// battery level and an empty backlog.
func horizonWindow(cfg Config, set *trace.Set) stairWindow {
	return stairWindow{start: 0, n: set.Horizon(), b0: cfg.Battery.InitialMWh, q0: 0}
}

// stairRoute is the optional routing part of a staircase block, the
// coupling hook of the geo LP: per slot an export column out ∈ [0, home]
// and an import column in ≥ 0 priced at penaltyUSD, both shifting the
// balance row's demand, plus a row capping the post-routing demand at
// capMWh (no row when capMWh is zero).
type stairRoute struct {
	penaltyUSD float64
	capMWh     float64
}

// addStairBlock appends one site's LP over the window win in staircase
// state-variable form to prob: explicit battery-level variables B_i and
// cumulative-served variables U_i turn the chain formulation's O(n²)
// prefix rows into one equality and two column bounds per slot, so the
// matrix has O(1) nonzeros per row and the sparse revised simplex
// solves it at annual scale. The objective is an exact substitution of
// the chain form (B_i = b0 + Σ ηc·c_j − ηd·d_j, U_i = Σ u_j), so the
// optimal value is identical; the reported vertex may be a different,
// equally optimal one. Each interval's fleet startup cost is amortized
// over that interval's length.
//
// With route non-nil the block also carries the routing part: the out
// and in columns follow U_i, their balance terms follow w_i, and the
// route-cap row follows the S_max row. Variable and row order are part
// of the contract: they fix the pivot sequence, and with it the vertex
// the staircase pin (testdata/golden/staircase.txt) and the fig6v
// golden record. The block takes its id slices from st in one call, so
// a rebuild to the same shape allocates nothing without a fleet.
func (st *lpState) addStairBlock(prob *lp.Problem, cfg Config, set *trace.Set, win stairWindow, route *stairRoute) stairBlock {
	bat := cfg.Battery
	inf := math.Inf(1)
	H, T := win.n, cfg.T
	K := (H + T - 1) / T
	intervalLen := func(k int) int { return min(T, H-k*T) }

	perSlot := 8
	if route != nil {
		perSlot = 10
	}
	ids := st.takeIDs(K + perSlot*H)
	take := func(n int) []lp.VarID {
		s := ids[:n:n]
		ids = ids[n:]
		return s
	}

	gbef := take(K)
	for k := range gbef {
		plt := set.PriceLT.At(win.start + k*T)
		gbef[k] = prob.AddVariable("gbef", 0, float64(intervalLen(k))*cfg.PgridMWh, plt)
	}

	grt, u, c, d, w, e := take(H), take(H), take(H), take(H), take(H), take(H)
	bl := take(H) // battery level after slot i
	us := take(H) // cumulative served through slot i
	var out, in []lp.VarID
	if route != nil {
		out, in = take(H), take(H)
	}
	units := cfg.genUnits()
	var g [][][]lp.VarID
	if len(units) > 0 {
		g = make([][][]lp.VarID, H)
	}
	proxy := 0.0
	if bat.MaxChargeMWh > 0 {
		proxy = bat.OpCostUSD / max(bat.MaxChargeMWh, bat.MaxDischargeMWh)
	}
	avail := win.q0
	for i := 0; i < H; i++ {
		slot := win.start + i
		prt := set.PriceRT.At(slot)
		grt[i] = prob.AddVariable("", 0, cfg.PgridMWh, prt)
		u[i] = prob.AddVariable("", 0, cfg.SdtMaxMWh, 0)
		c[i] = prob.AddVariable("", 0, bat.MaxChargeMWh, proxy)
		d[i] = prob.AddVariable("", 0, bat.MaxDischargeMWh, proxy)
		w[i] = prob.AddVariable("", 0, inf, cfg.WasteCostUSD)
		e[i] = prob.AddVariable("", 0, inf, cfg.EmergencyCostUSD)
		if g != nil {
			g[i] = addFleetVars(prob, units, i, intervalLen(i/T))
		}
		avail += set.DemandDT.At(slot)
		bl[i] = prob.AddVariable("B", bat.MinLevelMWh, bat.CapacityMWh, 0)
		us[i] = prob.AddVariable("U", 0, avail, 0)
		if route != nil {
			out[i] = prob.AddVariable("out", 0, set.DemandDS.At(slot), 0)
			in[i] = prob.AddVariable("in", 0, inf, route.penaltyUSD)
		}
	}

	for i := 0; i < H; i++ {
		slot := win.start + i
		k := i / T
		invN := 1.0 / float64(intervalLen(k))
		dds := set.DemandDS.At(slot)
		r := set.Renewable.At(slot)

		balance := append(st.terms[:0],
			lp.Term{Var: gbef[k], Coeff: invN},
			lp.Term{Var: grt[i], Coeff: 1},
			lp.Term{Var: d[i], Coeff: 1},
			lp.Term{Var: e[i], Coeff: 1},
			lp.Term{Var: u[i], Coeff: -1},
			lp.Term{Var: c[i], Coeff: -1},
			lp.Term{Var: w[i], Coeff: -1},
		)
		if route != nil {
			// Balance against the post-routing demand dds − out + in:
			// moving out and in to the left keeps the right-hand side.
			balance = append(balance,
				lp.Term{Var: out[i], Coeff: 1},
				lp.Term{Var: in[i], Coeff: -1},
			)
		}
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

		// Routing capacity: post-routing demand home − out + in may not
		// exceed the site's serving capacity, i.e. in − out ≤ cap − home.
		if route != nil && route.capMWh > 0 {
			prob.AddConstraint(lp.LE, route.capMWh-dds,
				lp.Term{Var: in[i], Coeff: 1},
				lp.Term{Var: out[i], Coeff: -1},
			)
		}

		// Battery state transition: B_i − B_{i−1} = ηc·c_i − ηd·d_i,
		// with the initial level folded into slot 0's right-hand side.
		// The chain form's level-window rows become B_i's bounds.
		if i == 0 {
			prob.AddConstraint(lp.EQ, win.b0,
				lp.Term{Var: bl[0], Coeff: 1},
				lp.Term{Var: c[0], Coeff: -bat.ChargeEff},
				lp.Term{Var: d[0], Coeff: bat.DischargeEff},
			)
		} else {
			prob.AddConstraint(lp.EQ, 0,
				lp.Term{Var: bl[i], Coeff: 1},
				lp.Term{Var: bl[i-1], Coeff: -1},
				lp.Term{Var: c[i], Coeff: -bat.ChargeEff},
				lp.Term{Var: d[i], Coeff: bat.DischargeEff},
			)
		}

		// Served accumulator: U_i − U_{i−1} = u_i; service causality
		// (U_i ≤ arrivals through slot i) is U_i's upper bound.
		if i == 0 {
			prob.AddConstraint(lp.EQ, 0,
				lp.Term{Var: us[0], Coeff: 1},
				lp.Term{Var: u[0], Coeff: -1},
			)
		} else {
			prob.AddConstraint(lp.EQ, 0,
				lp.Term{Var: us[i], Coeff: 1},
				lp.Term{Var: us[i-1], Coeff: -1},
				lp.Term{Var: u[i], Coeff: -1},
			)
		}
	}

	// Per-interval deadlines against the cumulative-served variable,
	// with a penalized slack each — two nonzeros per row instead of the
	// chain form's end-index-long prefix. Delay-tolerant demand never
	// routes.
	arrived := win.q0
	for k := 0; k < K; k++ {
		end := k*T + intervalLen(k)
		for i := k * T; i < end; i++ {
			arrived += set.DemandDT.At(win.start + i)
		}
		slack := prob.AddVariable("slack", 0, inf, cfg.EmergencyCostUSD)
		prob.AddConstraint(lp.GE, arrived,
			lp.Term{Var: us[end-1], Coeff: 1},
			lp.Term{Var: slack, Coeff: 1},
		)
	}
	return stairBlock{gbef: gbef, grt: grt, u: u, c: c, d: d, g: g, out: out, in: in}
}
