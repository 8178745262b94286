package lp

import (
	"math"

	"github.com/smartdpss/smartdpss/internal/scratch"
)

// The dense two-phase tableau simplex below is the parity oracle the
// revised simplex (Solver.Solve, the package's one solve path) is
// checked against, and the subject of the anti-cycling regression
// tests (Beale's example): it prices by Dantzig's rule, switches to
// Bland's rule after stalls, and handles bounds by complement
// reflection.
//
// Known defect: the tableau has no scaling, no reinversion and no
// residual check, so on a badly scaled problem it can report Optimal at
// an infeasible point, or at a feasible one short of the optimum. The
// case that exposed it is an interval LP plus a dense cost-cut row
// Σ cⱼxⱼ ≤ z*·(1+ε) whose coefficients span 0.2 to 1e6
// (internal/baseline's TestIntervalCostCutSolvesVerified): the tableau
// returned a point whose cut-row left-hand side was 928.8 against a
// right-hand side of 896.6, while the revised simplex solves it to a
// verified optimum. Parity checks therefore trust an oracle Optimal only
// when its point passes Problem.feasible, the check Solver.Solve applies
// to its own answers, and on that shape compare objectives one way only
// (see parity).

// tableau is a dense simplex tableau with simultaneous phase-1/phase-2
// objective rows. All buffers are owned by the tableau and reused across
// init calls: rows are views into one flat arena, so a rebuild allocates
// nothing once the buffers have grown to the problem's size.
type tableau struct {
	m, n     int         // active rows, total columns (incl. slacks/artificials)
	arena    []float64   // m×n backing storage for rows
	rows     [][]float64 // m rows × n coefficients (current B⁻¹A)
	rhs      []float64   // current B⁻¹b (kept ≥ 0 up to roundoff)
	basis    []int       // basis[i] = column basic in row i
	obj      []float64   // phase-2 reduced-cost row
	objVal   float64     // phase-2 objective of current basis (to be negated)
	p1obj    []float64   // phase-1 reduced-cost row
	p1val    float64     // phase-1 objective of current basis
	artStart int         // first artificial column; columns ≥ artStart are banned in phase 2
	inPhase1 bool
	bland    bool // permanent Bland's-rule mode after stalls
	stall    int
	pivots   int

	// Bounded-variable state. Every column carries an upper bound (+Inf
	// for slacks, artificials and unbounded structurals); flip[j] records
	// that column j currently stands for the complement ub[j] − x of its
	// variable, the reflection that keeps every nonbasic column "at zero"
	// so the entering rule needs no at-upper special case. Without a
	// finite bound, flip stays all-false and the loop is the plain
	// textbook simplex.
	ub    []float64
	flip  []bool
	hasUB bool // any finite column bound
}

// init (re)builds the initial tableau from the standard form, whose row
// coefficients coeffs holds densely: slack columns for ≤ rows,
// surplus+artificial for ≥ rows, artificial for = rows, with rhs ≥ 0.
// Every cell the simplex reads is overwritten here, so reusing buffers
// across solves cannot leak state between problems.
func (t *tableau) init(sf *standardForm, coeffs [][]float64) {
	m := len(sf.rows)
	// Count auxiliary columns.
	slacks, arts := 0, 0
	for _, r := range sf.rows {
		rel, rhs := r.rel, r.rhs
		if rhs < 0 {
			rel = flipRel(rel)
		}
		switch rel {
		case LE:
			slacks++
		case GE:
			slacks++ // surplus
			arts++
		case EQ:
			arts++
		}
	}
	n := sf.ncols + slacks + arts
	t.m, t.n = m, n
	t.artStart = sf.ncols + slacks
	t.arena = scratch.Zeroed(t.arena, m*n)
	if cap(t.rows) < m {
		t.rows = make([][]float64, m)
	}
	t.rows = t.rows[:m]
	t.rhs = scratch.Zeroed(t.rhs, m)
	t.basis = scratch.For(t.basis, m)
	t.obj = scratch.Zeroed(t.obj, n+1)
	t.p1obj = scratch.Zeroed(t.p1obj, n+1)
	t.objVal, t.p1val = 0, 0
	t.inPhase1, t.bland = false, false
	t.stall, t.pivots = 0, 0

	// Column bounds: structural columns inherit the standard form's
	// bounds; slacks, surpluses and artificials are unbounded above.
	t.ub = scratch.For(t.ub, n)
	t.flip = scratch.Zeroed(t.flip, n)
	t.hasUB = false
	copy(t.ub, sf.upper)
	for j := sf.ncols; j < n; j++ {
		t.ub[j] = math.Inf(1)
	}
	for _, u := range sf.upper {
		if !math.IsInf(u, 1) {
			t.hasUB = true
			break
		}
	}

	slackCol := sf.ncols
	artCol := t.artStart
	for i, r := range sf.rows {
		row := t.arena[i*n : (i+1)*n : (i+1)*n]
		t.rows[i] = row
		sign := 1.0
		rel, rhs := r.rel, r.rhs
		if rhs < 0 {
			sign, rhs, rel = -1, -rhs, flipRel(rel)
		}
		for j, c := range coeffs[i] {
			row[j] = sign * c
		}
		switch rel {
		case LE:
			row[slackCol] = 1
			t.basis[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		case EQ:
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		}
		t.rhs[i] = rhs
	}

	// Phase-2 cost row: reduced costs w.r.t. the initial basis. Initial basic
	// columns are slacks/artificials with zero phase-2 cost, so the row is
	// simply the cost vector.
	for j := 0; j < sf.ncols; j++ {
		t.obj[j] = sf.costs[j]
	}

	// Phase-1 cost row: cost 1 on artificials; eliminate basic artificials.
	// Index n of an objective row holds −(objective value of current basis).
	for j := t.artStart; j < n; j++ {
		t.p1obj[j] = 1
	}
	for i, col := range t.basis {
		if col >= t.artStart {
			for j := 0; j < n; j++ {
				t.p1obj[j] -= t.rows[i][j]
			}
			t.p1obj[n] -= t.rhs[i]
		}
	}
	t.p1val = -t.p1obj[n]
}

func flipRel(r Relation) Relation {
	switch r {
	case LE:
		return GE
	case GE:
		return LE
	default:
		return EQ
	}
}

// iterate runs simplex pivots and bound flips until optimality or
// unboundedness for the current phase.
func (t *tableau) iterate(maxIter int) (Status, error) {
	for {
		if t.pivots >= maxIter {
			return 0, ErrIterLimit
		}
		enter := t.chooseEntering()
		if enter < 0 {
			return Optimal, nil
		}
		leave, flip := t.chooseLeaving(enter)
		if flip {
			t.flipBound(enter)
			continue
		}
		if leave < 0 {
			return Unbounded, nil
		}
		if t.rows[leave][enter] < 0 {
			// The blocking basic variable reaches its upper bound, not
			// zero: rewrite its row in terms of the complement so the
			// ordinary pivot drives that complement to zero.
			t.reflectBasic(leave)
		}
		t.pivot(leave, enter)
	}
}

// currentObjRow returns the active phase's reduced-cost row.
func (t *tableau) currentObjRow() []float64 {
	if t.inPhase1 {
		return t.p1obj
	}
	return t.obj
}

// columnAllowed reports whether column j may enter the basis in the current
// phase (artificials are banned once phase 1 completes).
func (t *tableau) columnAllowed(j int) bool {
	return t.inPhase1 || j < t.artStart
}

// chooseEntering picks the entering column: Dantzig's rule normally,
// Bland's rule when stalled. Returns -1 at optimality.
func (t *tableau) chooseEntering() int {
	objRow := t.currentObjRow()
	if t.bland {
		for j := 0; j < t.n; j++ {
			if t.columnAllowed(j) && objRow[j] < -costTol {
				return j
			}
		}
		return -1
	}
	best, bestVal := -1, -costTol
	for j := 0; j < t.n; j++ {
		if t.columnAllowed(j) && objRow[j] < bestVal {
			best, bestVal = j, objRow[j]
		}
	}
	return best
}

// chooseLeaving runs the ratio test for entering column e, breaking ties
// by the smallest basis column (lexicographic Bland tie-break). Three
// limits compete: a basic variable driven to zero, a basic variable
// driven to its upper bound (the reflection case, signalled by a negative
// entry in its row), and the entering variable reaching its own upper
// bound (a bound flip with no basis change, signalled by flip=true).
// Rows win exact ties against the flip so the degenerate behavior stays
// pivot-shaped. (row=-1, flip=false) means the column is unbounded.
func (t *tableau) chooseLeaving(e int) (row int, flip bool) {
	best := -1
	bestRatio := math.Inf(1)
	for i := 0; i < t.m; i++ {
		a := t.rows[i][e]
		var ratio float64
		switch {
		case a > pivotTol:
			ratio = t.rhs[i] / a
		case t.hasUB && a < -pivotTol && !math.IsInf(t.ub[t.basis[i]], 1):
			ratio = (t.ub[t.basis[i]] - t.rhs[i]) / -a
		default:
			continue
		}
		if ratio < bestRatio-1e-12 ||
			(ratio <= bestRatio+1e-12 && best >= 0 && t.basis[i] < t.basis[best]) {
			best, bestRatio = i, ratio
		}
	}
	if t.hasUB && t.ub[e] < bestRatio-1e-12 {
		return -1, true
	}
	return best, false
}

// pivot performs the Gauss-Jordan pivot on (row r, column e), updating both
// objective rows and objective values.
func (t *tableau) pivot(r, e int) {
	prevObj := t.objVal
	prevP1 := t.p1val

	pr := t.rows[r]
	pv := pr[e]
	inv := 1 / pv
	for j := 0; j < t.n; j++ {
		pr[j] *= inv
	}
	t.rhs[r] *= inv
	pr[e] = 1 // kill roundoff on the pivot element

	for i := 0; i < t.m; i++ {
		if i == r {
			continue
		}
		f := t.rows[i][e]
		if f == 0 {
			continue
		}
		ri := t.rows[i]
		for j := 0; j < t.n; j++ {
			ri[j] -= f * pr[j]
		}
		ri[e] = 0
		t.rhs[i] -= f * t.rhs[r]
		if t.rhs[i] < 0 && t.rhs[i] > -1e-11 {
			t.rhs[i] = 0
		}
	}
	for _, objRow := range [2][]float64{t.obj, t.p1obj} {
		f := objRow[e]
		if f == 0 {
			continue
		}
		for j := 0; j < t.n; j++ {
			objRow[j] -= f * pr[j]
		}
		objRow[e] = 0
		objRow[t.n] -= f * t.rhs[r]
	}
	t.objVal = -t.obj[t.n]
	t.p1val = -t.p1obj[t.n]
	t.basis[r] = e
	t.pivots++
	t.trackProgress(prevObj, prevP1)
}

// trackProgress runs the stall detection shared by pivots and bound
// flips: switch to Bland's rule when the active objective has not
// improved for a while (anti-cycling guarantee).
func (t *tableau) trackProgress(prevObj, prevP1 float64) {
	improved := false
	if t.inPhase1 {
		improved = prevP1-t.p1val > improveE
	} else {
		improved = prevObj-t.objVal > improveE
	}
	if improved {
		t.stall = 0
	} else {
		t.stall++
		if t.stall >= stallWin {
			t.bland = true
		}
	}
}

// flipBound moves nonbasic column e from its active bound to the opposite
// one by substituting the complement variable ub[e] − x everywhere the
// column appears. No basis change happens; the move strictly improves the
// active objective (the entering rule admitted e with a negative reduced
// cost and ub[e] > 0), so flips cannot cycle. Counted against the pivot
// budget like a pivot.
func (t *tableau) flipBound(e int) {
	prevObj, prevP1 := t.objVal, t.p1val
	d := t.ub[e]
	for i := 0; i < t.m; i++ {
		ri := t.rows[i]
		a := ri[e]
		if a == 0 {
			continue
		}
		t.rhs[i] -= a * d
		ri[e] = -a
		if t.rhs[i] < 0 && t.rhs[i] > -1e-11 {
			t.rhs[i] = 0
		}
	}
	for _, objRow := range [2][]float64{t.obj, t.p1obj} {
		if f := objRow[e]; f != 0 {
			objRow[t.n] -= f * d
			objRow[e] = -f
		}
	}
	t.objVal = -t.obj[t.n]
	t.p1val = -t.p1obj[t.n]
	t.flip[e] = !t.flip[e]
	t.pivots++
	t.trackProgress(prevObj, prevP1)
}

// reflectBasic rewrites basic row r in terms of the complement of its
// basic variable (x = ub − x̃), used when the ratio test drives a basic
// variable to its upper bound: after the reflection the complement sits
// basic at ub − value ≥ 0 and the ordinary pivot drives it to zero. The
// reflected variable keeps its column index and bound; only flip[column]
// records the new orientation. Objective rows are untouched — a basic
// column's reduced cost is zero, and the current solution point does not
// move.
func (t *tableau) reflectBasic(r int) {
	b := t.basis[r]
	row := t.rows[r]
	for j := 0; j < t.n; j++ {
		row[j] = -row[j]
	}
	row[b] = 1
	t.rhs[r] = t.ub[b] - t.rhs[r]
	if t.rhs[r] < 0 && t.rhs[r] > -1e-11 {
		t.rhs[r] = 0
	}
	t.flip[b] = !t.flip[b]
}

// leavePhase1 transitions the tableau to phase 2: artificials still in the
// basis (at value zero) are driven out where possible; rows that cannot be
// pivoted are redundant and are deactivated.
func (t *tableau) leavePhase1() {
	t.inPhase1 = false
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artStart {
			continue
		}
		// Find any admissible pivot column in this degenerate row.
		pivotCol := -1
		for j := 0; j < t.artStart; j++ {
			if math.Abs(t.rows[i][j]) > pivotTol {
				pivotCol = j
				break
			}
		}
		if pivotCol >= 0 {
			t.pivot(i, pivotCol)
			continue
		}
		// Redundant row: remove it by swapping with the last active row.
		last := t.m - 1
		t.rows[i], t.rows[last] = t.rows[last], t.rows[i]
		t.rhs[i], t.rhs[last] = t.rhs[last], t.rhs[i]
		t.basis[i], t.basis[last] = t.basis[last], t.basis[i]
		t.m--
		i--
	}
	t.stall, t.bland = 0, false
}

// tableauSolver runs the tableau oracle with buffer reuse, the way a
// Solver runs the revised simplex: the standard form, the dense row
// arena, the tableau and the solution vector persist across solves.
type tableauSolver struct {
	sf    standardForm
	arena []float64   // dense standard-form rows, one slab
	rows  [][]float64 // views into arena
	t     tableau
	y     []float64
	vals  []float64
}

// solveTableau solves p on the tableau oracle with a throwaway solver.
// The returned values are the caller's.
func solveTableau(p *Problem) (Solution, error) {
	var o tableauSolver
	return o.Solve(p)
}

// denseRows restates the standard form's constraint rows as dense
// coefficient vectors over its columns, summing p's terms in the same
// order buildRows does.
func (o *tableauSolver) denseRows(p *Problem) {
	sf := &o.sf
	n := sf.ncols
	o.arena = scratch.Zeroed(o.arena, len(p.cons)*n)
	if cap(o.rows) < len(p.cons) {
		o.rows = make([][]float64, len(p.cons))
	}
	o.rows = o.rows[:len(p.cons)]
	for ci, c := range p.cons {
		row := o.arena[ci*n : (ci+1)*n : (ci+1)*n]
		for _, t := range c.terms {
			s := sf.subs[t.Var]
			if s.col < 0 {
				continue
			}
			row[s.col] += t.Coeff * s.scale
			if sf.recover[t.Var].kind == recSplit {
				row[s.col2] -= t.Coeff
			}
		}
		o.rows[ci] = row
	}
}

// Solve runs the two-phase tableau simplex on p. The Solution borrows
// o's buffers until the next solve.
func (o *tableauSolver) Solve(p *Problem) (Solution, error) {
	if err := p.validate(); err != nil {
		return Solution{}, err
	}
	p.buildStandardForm(&o.sf)
	o.denseRows(p)
	sf := &o.sf
	t := &o.t
	t.init(sf, o.rows)

	maxIter := 200 + 60*(t.m+t.n)

	// Phase 1: minimize the sum of artificial variables.
	t.inPhase1 = true
	status, err := t.iterate(maxIter)
	if err != nil {
		return Solution{}, err
	}
	if status == Unbounded {
		// Phase-1 objective is bounded below by 0; unbounded here means
		// numerical trouble.
		return Solution{}, ErrNumerical
	}
	if t.p1val > feasTol {
		return Solution{Status: Infeasible, Iterations: t.pivots}, nil
	}
	t.leavePhase1()

	// Phase 2: minimize the true objective.
	status, err = t.iterate(maxIter)
	if err != nil {
		return Solution{}, err
	}
	if status == Unbounded {
		return Solution{Status: Unbounded, Iterations: t.pivots}, nil
	}

	o.y = scratch.Zeroed(o.y, sf.ncols)
	if t.hasUB {
		// Nonbasic flipped columns sit at their upper bound; basic flipped
		// columns hold the complement, undone below.
		for j := 0; j < sf.ncols; j++ {
			if t.flip[j] {
				o.y[j] = t.ub[j]
			}
		}
	}
	for i := 0; i < t.m; i++ {
		if col := t.basis[i]; col < sf.ncols {
			if t.hasUB && t.flip[col] {
				o.y[col] = t.ub[col] - t.rhs[i]
			} else {
				o.y[col] = t.rhs[i]
			}
		}
	}
	o.vals = scratch.Zeroed(o.vals, len(sf.recover))
	sf.recoverValuesInto(o.y, o.vals)
	return Solution{
		Status:     Optimal,
		Objective:  t.objVal + sf.offset,
		Iterations: t.pivots,
		values:     o.vals,
	}, nil
}
