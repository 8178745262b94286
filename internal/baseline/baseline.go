// Package baseline provides the comparison policies of the SmartDPSS
// evaluation (Sec. VI-A "Compared Algorithms"):
//
//   - Impatient: the online strawman that "always schedules workloads
//     immediately regardless of the changes of electricity prices and
//     renewable production".
//   - OfflineOptimal: the paper's offline benchmark (Sec. II-D). By
//     Lemma 1 the clairvoyant optimum needs essentially no real-time
//     purchases and wastes nothing; the paper solves problem P2 once per
//     coarse slot. We realize this as a per-interval linear program with
//     full knowledge of that interval's demand, renewable production and
//     prices, intra-interval battery dynamics, and battery state carried
//     across intervals.
//   - OfflineHorizon: a single clairvoyant LP over the whole horizon,
//     used on short horizons to measure how much the per-interval
//     decomposition gives up (cross-interval battery planning).
//
// The two offline benchmarks are one controller, Offline, over two plan
// windows.
//
// Config embeds sim.Plant, so every baseline plans against the plant
// the session executes and bills, as SmartDPSS does.
//
// Every LP here — the interval, whole-horizon, receding-horizon and
// coupled geo LPs — solves on internal/lp's one solve path, the sparse
// revised simplex. A solver error leaves OfflineOptimal an empty
// interval plan and Lookahead a myopic slot decision; the whole-horizon
// and geo constructors return it.
//
// The UPS fixed charge Cb·n(τ) is non-convex; the offline LPs use the
// standard linear proxy Cb·(brc/Bcmax + bdc/Bdmax), which never overstates
// the true operation cost. The offline benchmarks therefore report a cost
// at or slightly below what any physical schedule could achieve — the
// right direction for a lower-bound benchmark.
//
// When an on-site generation fleet is configured (Config.Fleet), the
// LPs plan each unit's dispatch as relaxed per-slot, per-unit variables
// over its convex fuel curve (piecewise-linear segments priced at their
// marginal fuel cost), with the classical unit-commitment LP
// relaxation of the non-convex minimum stable load: a commitment
// variable y ∈ [0, 1] per unit and slot linking
// MinLoad·y ≤ g ≤ Capacity·y and carrying the startup cost amortized
// over the window. The integer nature of y stays relaxed — the same
// relax-and-replay treatment the battery proxy receives. The engine
// enforces the physical constraints during replay, so the reported
// cost is the executed truth; only the plan itself is optimistic.
package baseline

import (
	"errors"
	"fmt"

	"github.com/smartdpss/smartdpss/internal/generator"
	"github.com/smartdpss/smartdpss/internal/lp"
	"github.com/smartdpss/smartdpss/internal/scratch"
	"github.com/smartdpss/smartdpss/internal/sim"
)

// Config configures the baseline policies: the plant they plan against
// (the one the session executes) and the coarse-slot length. In the
// offline LPs the plant's EmergencyCostUSD prices unserved
// delay-sensitive energy, and each fleet unit gets its own relaxed LP
// variables.
type Config struct {
	sim.Plant
	// T is the number of fine slots per coarse slot.
	T int
}

// DefaultConfig returns sim.DefaultPlant with T = 24 one-hour slots, the
// constants core.DefaultParams uses.
func DefaultConfig() Config {
	return Config{Plant: sim.DefaultPlant(), T: 24}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.T <= 0 {
		return errors.New("baseline: T must be positive")
	}
	return c.Plant.Validate()
}

// lpState is the reusable LP substrate a baseline controller owns: the
// solver whose buffers persist across the run's solves, the
// problem rebuilt in place, and every slice the model builders need.
//
// Every solve runs lp's sparse revised simplex (capacity and box limits
// as column bounds, not rows) cold, with buffer reuse; the lp package
// documentation records why no solve is warm-started. The zero value is
// ready to use.
type lpState struct {
	solver lp.Solver
	prob   *lp.Problem

	idArena []lp.VarID // variable ids of the current model (takeIDs)
	terms   []lp.Term  // per-constraint build buffer
	chain   []lp.Term  // incrementally grown battery-level terms
	serve   []lp.Term  // incrementally grown service-causality terms
	plan    []sim.Decision
	clamped []float64

	// sol is the most recent solve that returned no error. Its values
	// borrow the solver's buffers and stay readable until the next solve.
	sol lp.Solution
}

// problem returns the reusable problem, reset for rebuilding, and
// rewinds the id arena.
func (st *lpState) problem() *lp.Problem {
	if st.prob == nil {
		st.prob = lp.NewProblem()
	}
	st.prob.Reset()
	st.idArena = st.idArena[:0]
	return st.prob
}

// solve solves prob and records the solution in st.sol.
func (st *lpState) solve(prob *lp.Problem) (lp.Solution, error) {
	sol, err := st.solver.Solve(prob)
	if err == nil {
		st.sol = sol
	}
	return sol, err
}

// takeIDs returns n variable-id slots from the id arena that problem()
// rewinds, so a model that takes all its ids in one call per build
// allocates nothing once the arena fits its shape. A take that does not
// fit starts a fresh arena; slices handed out earlier keep the old one
// and stay valid until the next rebuild.
func (st *lpState) takeIDs(n int) []lp.VarID {
	used := len(st.idArena)
	if used+n > cap(st.idArena) {
		st.idArena, used = make([]lp.VarID, 0, n), 0
	}
	st.idArena = st.idArena[:used+n]
	return st.idArena[used : used+n : used+n]
}

// varIDs returns six per-slot variable-id slices of length n, carved
// from one takeIDs call.
func (st *lpState) varIDs(n int) (grt, u, c, d, w, e []lp.VarID) {
	ids := st.takeIDs(6 * n)
	return ids[:n:n], ids[n : 2*n : 2*n], ids[2*n : 3*n : 3*n],
		ids[3*n : 4*n : 4*n], ids[4*n : 5*n : 5*n], ids[5*n:]
}

// decisions returns the plan buffer resized to n with zeroed entries.
func (st *lpState) decisions(n int) []sim.Decision {
	if cap(st.plan) < n {
		st.plan = make([]sim.Decision, n)
	}
	st.plan = st.plan[:n]
	for i := range st.plan {
		st.plan[i] = sim.Decision{}
	}
	return st.plan
}

// genUnit is one fleet unit's relaxed LP description: the full output
// band (0, Capacity] decomposed into convex fuel-curve segments.
type genUnit struct {
	spec generator.Params
	segs []generator.Segment
}

// genUnits resolves the configured fleet into LP unit descriptions; nil
// without on-site generation.
func (c Config) genUnits() []genUnit {
	if len(c.Fleet) == 0 {
		return nil
	}
	units := make([]genUnit, len(c.Fleet))
	for i, p := range c.Fleet {
		units[i] = genUnit{spec: p, segs: p.Segments(0, p.CapacityMWh)}
	}
	return units
}

// addFleetVars adds the relaxed dispatch variables of every unit for
// slot i: one variable per fuel-curve segment, priced at its marginal,
// plus a commitment variable y ∈ [0, 1] carrying the startup cost
// amortized over the amortSlots-long window and linking the unit's
// minimum-stable-load semi-continuity (MinLoad·y ≤ Σg ≤ Capacity·y). The returned slice holds each unit's
// segment variables; nil when no fleet is configured.
func addFleetVars(prob *lp.Problem, units []genUnit, i, amortSlots int) [][]lp.VarID {
	if len(units) == 0 {
		return nil
	}
	vars := make([][]lp.VarID, len(units))
	for u, unit := range units {
		vars[u] = make([]lp.VarID, len(unit.segs))
		for k, s := range unit.segs {
			vars[u][k] = prob.AddVariable(fmt.Sprintf("g%d_%d_%d", i, u, k),
				0, s.Cap, s.USDPerMWh)
		}
		spec := unit.spec
		if spec.StartupUSD == 0 && spec.MinLoadMWh == 0 {
			continue // y would be free and unconstrained: skip it
		}
		amort := spec.StartupUSD / float64(amortSlots)
		y := prob.AddVariable(fmt.Sprintf("y%d_%d", i, u), 0, 1, amort)
		// Σg − Capacity·y ≤ 0 and Σg − MinLoad·y ≥ 0.
		upper := make([]lp.Term, 0, len(unit.segs)+1)
		lower := make([]lp.Term, 0, len(unit.segs)+1)
		for _, gv := range vars[u] {
			upper = append(upper, lp.Term{Var: gv, Coeff: 1})
			lower = append(lower, lp.Term{Var: gv, Coeff: 1})
		}
		upper = append(upper, lp.Term{Var: y, Coeff: -spec.CapacityMWh})
		prob.AddConstraint(lp.LE, 0, upper...)
		if spec.MinLoadMWh > 0 {
			lower = append(lower, lp.Term{Var: y, Coeff: -spec.MinLoadMWh})
			prob.AddConstraint(lp.GE, 0, lower...)
		}
	}
	return vars
}

// appendFleetTerms appends one +1 term per generation variable of the
// slot (for the balance and supply-cap constraints).
func appendFleetTerms(terms []lp.Term, vars [][]lp.VarID) []lp.Term {
	for _, unit := range vars {
		for _, gv := range unit {
			terms = append(terms, lp.Term{Var: gv, Coeff: 1})
		}
	}
	return terms
}

// genPlanUnits sums each unit's solved segment outputs for one slot
// (nil when no fleet is configured).
func genPlanUnits(sol *lp.Solution, vars [][]lp.VarID) []float64 {
	if len(vars) == 0 {
		return nil
	}
	out := make([]float64, len(vars))
	for u, unit := range vars {
		for _, v := range unit {
			out[u] += sol.Value(v)
		}
	}
	return out
}

// clampUnitsInto clamps a planned per-unit dispatch to the live
// admissible requests (the engine enforces min-load and startup physics
// on execution), writing into dst, which must have len(plan).
func clampUnitsInto(dst, plan []float64, units []generator.UnitObs) []float64 {
	for u, v := range plan {
		if u < len(units) {
			dst[u] = min(v, units[u].RequestMax)
		} else {
			dst[u] = 0
		}
	}
	return dst
}

// clampPlan clamps a planned per-unit dispatch to the live admissible
// requests in the state's reusable buffer (valid until the next call).
// A nil plan stays nil, so fleet-free decisions stay fleet-free.
func (st *lpState) clampPlan(plan []float64, units []generator.UnitObs) []float64 {
	if plan == nil {
		return nil
	}
	st.clamped = scratch.For(st.clamped, len(plan))
	return clampUnitsInto(st.clamped, plan, units)
}
