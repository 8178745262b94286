package lp

import (
	"math"

	"github.com/smartdpss/smartdpss/internal/scratch"
)

// Numerical tolerances of the revised simplex.
const (
	pivotTol    = 1e-9  // minimum |pivot| accepted
	costTol     = 1e-9  // reduced-cost optimality tolerance
	feasTol     = 1e-7  // feasibility tolerance, scaled by magnitude (sgnOfVal, Problem.feasible)
	ratioTieTol = 1e-12 // relative tie window of the ratio test
	stallWin    = 256   // pivots without improvement before switching to Bland
	improveE    = 1e-12 // minimum objective improvement counted as progress
)

// Column statuses of the revised simplex. A column at its upper bound
// keeps its matrix data and is tracked by status alone; its
// contribution moves into the effective right-hand side.
const (
	nbLower uint8 = iota // nonbasic at lower bound (0)
	nbUpper              // nonbasic at finite upper bound
	inBasis
)

// revised is the working state of the sparse revised simplex: the
// constraint matrix in compressed sparse column form over structural and
// slack columns, the LU-factorized basis, and the bounded-variable
// bookkeeping. Column ids n..n+m-1 are placeholder unit columns fixed at
// [0,0] — they cover rows the crash basis leaves uncovered and absorb
// numerically dependent basis positions, playing the role a textbook
// phase 1's artificial variables play, but under the composite phase-1
// objective they need no artificial costs and are simply never priced.
//
// All slices are owned by the struct and reused across solves.
type revised struct {
	m, n    int // rows; priced columns (structural + slack)
	nstruct int

	colStart []int32
	colRow   []int32
	colVal   []float64
	cost     []float64
	ub       []float64

	rhs  []float64 // right-hand sides as built
	beff []float64 // effective rhs: rhs − Σ_{j at upper} ub_j·A_j

	status   []uint8
	basisVar []int32 // basis position -> column id
	posOf    []int32 // column id -> basis position, -1 when nonbasic

	xB []float64 // basic values, by position
	lu basisLU

	sf *standardForm // build source; pivot-row pricing reads its row-major storage

	rotor int // partial-pricing segment cursor

	// Incrementally maintained pivot-loop state (see pricing.go): the
	// reduced costs and devex weights of every priced column, and the
	// feasibility signs of every basis position. All of it is rebuilt by
	// build/rescan, so nothing leaks across solves.
	d        []float64 // reduced costs, updated from each pivot row
	elig     []uint64  // bitset of the columns eligible to enter, kept in step with d and status
	gamma    []float64 // devex reference weights
	gammaMax float64   // largest weight since the last framework reset
	dPhase1  bool      // phase the maintained duals price
	dStale   bool      // duals need a recompute before the next pricing
	sgn      []int8    // per position: -1 below lower, +1 above upper, 0 feasible
	ninf     int       // infeasible basis positions, tracked incrementally

	// solve scratch
	acol      []float64 // dense row-space ftran input
	w         []float64 // ftran output (basis-position space), zero between pivots
	wIdx      []int32   // pattern of w when wSparse
	wSparse   bool
	y         []float64 // btran output (row space)
	cB        []float64 // btran input (basis-position space)
	rho       []float64 // btranUnit output (row space), zero between pivots
	rhoIdx    []int32   // pattern of rho when rhoSparse
	rhoSparse bool
	alpha     []float64 // pivot row by priced column, zero between pivots
	alphaIdx  []int32   // pattern of alpha
	amark     []bool    // scatter marks for alpha
	slackSign []float64 // per row: ±1 slack coefficient, 0 on EQ rows

	// crash scratch
	covered []bool
	colCnt  []int32
	colMax  []float64
	queue   []int32
	slackOf []int32
	cur     []int32
}

// build assembles the revised-simplex state from a sparse standard form.
func (rs *revised) build(sf *standardForm) {
	m := len(sf.rows)
	nstruct := sf.ncols
	nslack := 0
	for _, row := range sf.rows {
		if row.rel != EQ {
			nslack++
		}
	}
	n := nstruct + nslack
	rs.m, rs.n, rs.nstruct = m, n, nstruct

	// CSC assembly: structural entries from the standard form's sparse
	// rows, one ±1 slack/surplus column per inequality row, assigned in
	// row order. Row indices within a column come out ascending.
	rs.colStart = scratch.Zeroed(rs.colStart, n+1)
	for _, c := range sf.rcol {
		rs.colStart[c+1]++
	}
	rs.sf = sf
	rs.slackOf = scratch.For(rs.slackOf, m)
	rs.slackSign = scratch.Zeroed(rs.slackSign, m)
	sid := int32(nstruct)
	for i, row := range sf.rows {
		if row.rel == EQ {
			rs.slackOf[i] = -1
		} else {
			rs.slackOf[i] = sid
			rs.colStart[sid+1]++
			sid++
		}
	}
	for j := 1; j <= n; j++ {
		rs.colStart[j] += rs.colStart[j-1]
	}
	nnz := int(rs.colStart[n])
	rs.colRow = scratch.For(rs.colRow, nnz)
	rs.colVal = scratch.For(rs.colVal, nnz)
	rs.cur = scratch.For(rs.cur, n)
	copy(rs.cur, rs.colStart[:n])
	for i := 0; i < m; i++ {
		for e := sf.rowStart[i]; e < sf.rowStart[i+1]; e++ {
			c := sf.rcol[e]
			rs.colRow[rs.cur[c]] = int32(i)
			rs.colVal[rs.cur[c]] = sf.rval[e]
			rs.cur[c]++
		}
		if s := rs.slackOf[i]; s >= 0 {
			v := 1.0
			if sf.rows[i].rel == GE {
				v = -1
			}
			rs.slackSign[i] = v
			rs.colRow[rs.cur[s]] = int32(i)
			rs.colVal[rs.cur[s]] = v
			rs.cur[s]++
		}
	}

	rs.cost = scratch.Zeroed(rs.cost, n)
	copy(rs.cost[:nstruct], sf.costs)
	rs.ub = scratch.For(rs.ub, n)
	copy(rs.ub[:nstruct], sf.upper)
	for j := nstruct; j < n; j++ {
		rs.ub[j] = math.Inf(1)
	}

	rs.rhs = scratch.For(rs.rhs, m)
	for i, row := range sf.rows {
		rs.rhs[i] = row.rhs
	}
	rs.beff = scratch.For(rs.beff, m)
	copy(rs.beff, rs.rhs)

	rs.status = scratch.Zeroed(rs.status, n+m) // nbLower everywhere
	rs.posOf = scratch.For(rs.posOf, n+m)
	for j := range rs.posOf {
		rs.posOf[j] = -1
	}
	rs.basisVar = scratch.For(rs.basisVar, m)
	rs.xB = scratch.For(rs.xB, m)
	rs.acol = scratch.For(rs.acol, m)
	rs.y = scratch.For(rs.y, m)
	rs.cB = scratch.For(rs.cB, m)

	// Per-solve pivot-loop state. Everything a previous solve could have
	// left behind is reset here — pricing cursor, devex framework,
	// maintained duals, feasibility signs, eta file (cleared by the first
	// factorize), and the zero-invariant scatter buffers, which a solve
	// aborted mid-pivot by an error may have left dirty.
	rs.rotor = 0
	rs.w = scratch.Zeroed(rs.w, m)
	rs.wIdx = rs.wIdx[:0]
	rs.wSparse = false
	rs.rho = scratch.Zeroed(rs.rho, m)
	rs.rhoIdx = rs.rhoIdx[:0]
	rs.rhoSparse = false
	rs.alpha = scratch.Zeroed(rs.alpha, n)
	rs.alphaIdx = rs.alphaIdx[:0]
	rs.amark = scratch.Zeroed(rs.amark, n)
	rs.d = scratch.For(rs.d, n)
	rs.elig = scratch.Zeroed(rs.elig, (n+63)/64)
	rs.gamma = scratch.For(rs.gamma, n)
	rs.resetDevexWeights()
	rs.dPhase1 = false
	rs.dStale = true
	rs.sgn = scratch.Zeroed(rs.sgn, m)
	rs.ninf = 0
	rs.lu.nfactor = 0
}

// crash builds a triangular starting basis by repeatedly picking columns
// with exactly one uncovered row (slack columns qualify immediately, and
// the staircase state columns of the horizon LPs cascade from there), so
// most equality rows start with a structural pivot instead of a
// placeholder. Pivots below a tenth of the column's largest entry are
// rejected for stability. The FIFO processing order is deterministic.
func (rs *revised) crash(sf *standardForm) {
	m, n := rs.m, rs.n
	rs.covered = scratch.Zeroed(rs.covered, m)
	rs.colCnt = scratch.For(rs.colCnt, n)
	rs.colMax = scratch.For(rs.colMax, n)
	for j := 0; j < n; j++ {
		rs.colCnt[j] = rs.colStart[j+1] - rs.colStart[j]
		cm := 0.0
		for i := rs.colStart[j]; i < rs.colStart[j+1]; i++ {
			if a := math.Abs(rs.colVal[i]); a > cm {
				cm = a
			}
		}
		rs.colMax[j] = cm
	}
	rs.queue = rs.queue[:0]
	for j := 0; j < n; j++ {
		if rs.colCnt[j] == 1 {
			rs.queue = append(rs.queue, int32(j))
		}
	}
	for qi := 0; qi < len(rs.queue); qi++ {
		j := rs.queue[qi]
		if rs.posOf[j] >= 0 || rs.colCnt[j] != 1 {
			continue
		}
		r := int32(-1)
		a := 0.0
		for i := rs.colStart[j]; i < rs.colStart[j+1]; i++ {
			if !rs.covered[rs.colRow[i]] {
				r, a = rs.colRow[i], rs.colVal[i]
				break
			}
		}
		if r < 0 || math.Abs(a) < 0.1*rs.colMax[j] {
			continue
		}
		rs.basisVar[r] = j
		rs.status[j] = inBasis
		rs.posOf[j] = r
		rs.covered[r] = true
		for e := sf.rowStart[r]; e < sf.rowStart[r+1]; e++ {
			c := sf.rcol[e]
			rs.colCnt[c]--
			if rs.colCnt[c] == 1 && rs.posOf[c] < 0 {
				rs.queue = append(rs.queue, c)
			}
		}
		if s := rs.slackOf[r]; s >= 0 && s != j {
			rs.colCnt[s]--
		}
	}
	for r := 0; r < m; r++ {
		if !rs.covered[r] {
			nv := int32(n + r)
			rs.basisVar[r] = nv
			rs.status[nv] = inBasis
			rs.posOf[nv] = int32(r)
		}
	}
}

// demoteToPlaceholder swaps the variable basic at pos out for the
// placeholder unit column of row r. Called by factorize when the basis
// proves numerically dependent; the demoted variable is parked at its
// lower bound, so the effective rhs is unchanged.
func (rs *revised) demoteToPlaceholder(pos int, r int32) {
	old := rs.basisVar[pos]
	rs.status[old] = nbLower
	rs.posOf[old] = -1
	nv := int32(rs.n) + r
	rs.basisVar[pos] = nv
	rs.status[nv] = inBasis
	rs.posOf[nv] = int32(pos)
}

// ubOf returns the upper bound of a column id, counting placeholders as
// fixed at zero.
func (rs *revised) ubOf(v int32) float64 {
	if int(v) >= rs.n {
		return 0
	}
	return rs.ub[v]
}

// colDot computes yᵀA_j over the sparse column.
func (rs *revised) colDot(j int) float64 {
	s := 0.0
	for i := rs.colStart[j]; i < rs.colStart[j+1]; i++ {
		s += rs.y[rs.colRow[i]] * rs.colVal[i]
	}
	return s
}

// addColTimes adds s·A_v into the dense row-space vector dst.
func (rs *revised) addColTimes(v int32, s float64, dst []float64) {
	if int(v) >= rs.n {
		dst[int(v)-rs.n] += s
		return
	}
	for i := rs.colStart[v]; i < rs.colStart[v+1]; i++ {
		dst[rs.colRow[i]] += s * rs.colVal[i]
	}
}

// refreshXB recomputes the basic values from the effective rhs through
// the current factorization, and reports whether they are all finite.
func (rs *revised) refreshXB() bool {
	copy(rs.acol, rs.beff)
	rs.lu.ftran(rs.acol, rs.xB)
	for _, x := range rs.xB {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// ratioTest finds how far the entering column q can move in direction
// dir (+1 from lower, −1 from upper) before a basic variable hits a
// bound. In phase 1 it is the conservative first-breakpoint rule:
// feasible basics block at their nearer bound, infeasible basics (as
// classified by the maintained sgn) block on reaching their violated
// bound (where the composite objective's slope changes). Ties resolve to
// the smallest leaving column id within a scale-aware window
// (ratioTieTol relative to the step length — an absolute window
// misbehaves on large-magnitude annual rows). When the
// entering variable's own upper bound binds first the move is a bound
// flip (r < 0, flip true); θ = +Inf means no breakpoint at all. The scan
// covers only the ftran pattern when the solve stayed hyper-sparse.
func (rs *revised) ratioTest(q int, dir float64, phase1 bool) (theta float64, r int, leaveAt uint8, flip bool) {
	best := math.Inf(1)
	r = -1
	bestVar := int32(math.MaxInt32)
	consider := func(i int) {
		wi := rs.w[i]
		if wi < pivotTol && wi > -pivotTol {
			return
		}
		delta := -dir * wi
		v := rs.basisVar[i]
		x := rs.xB[i]
		var t float64
		var at uint8
		switch {
		case phase1 && rs.sgn[i] < 0:
			if delta <= 0 {
				return
			}
			t = -x / delta
			at = nbLower
		case phase1 && rs.sgn[i] > 0:
			if delta >= 0 {
				return
			}
			t = (x - rs.ubOf(v)) / -delta
			at = nbUpper
		case delta < 0:
			t = x / -delta
			if t < 0 {
				t = 0
			}
			at = nbLower
		default:
			ubv := rs.ubOf(v)
			if math.IsInf(ubv, 1) {
				return
			}
			t = (ubv - x) / delta
			if t < 0 {
				t = 0
			}
			at = nbUpper
		}
		eps := ratioTieTol * (1 + t)
		if t < best-eps || (t <= best+eps && v < bestVar) {
			best, r, leaveAt, bestVar = t, i, at, v
		}
	}
	if rs.wSparse {
		for _, i := range rs.wIdx {
			consider(int(i))
		}
	} else {
		for i := 0; i < rs.m; i++ {
			consider(i)
		}
	}
	if ubq := rs.ub[q]; !math.IsInf(ubq, 1) && ubq < best-ratioTieTol*(1+ubq) {
		return ubq, -1, 0, true
	}
	return best, r, leaveAt, false
}

// applyFlip moves the entering column to its opposite bound without a
// basis change, updating the basic values, feasibility signs and the
// effective rhs over the ftran pattern, and the column's eligible bit.
func (rs *revised) applyFlip(q int, dir float64) {
	ubq := rs.ub[q]
	if rs.wSparse {
		for _, i := range rs.wIdx {
			if wi := rs.w[i]; wi != 0 {
				rs.xB[i] -= dir * ubq * wi
				rs.updateSgnAt(int(i))
			}
		}
	} else {
		for i, wi := range rs.w {
			if wi != 0 {
				rs.xB[i] -= dir * ubq * wi
				rs.updateSgnAt(i)
			}
		}
	}
	if dir > 0 {
		rs.status[q] = nbUpper
		rs.addColTimes(int32(q), -ubq, rs.beff)
	} else {
		rs.status[q] = nbLower
		rs.addColTimes(int32(q), ubq, rs.beff)
	}
	rs.markEligible(q)
}

// applyPivot executes the basis change: basic values move by θ along the
// direction (with feasibility signs maintained over the pattern), the
// leaving variable settles at leaveAt, the entering column takes
// position r, and the update is appended to the eta file.
func (rs *revised) applyPivot(q int, dir float64, r int, theta float64, leaveAt uint8) {
	if theta != 0 {
		if rs.wSparse {
			for _, i := range rs.wIdx {
				if int(i) == r {
					continue
				}
				if wi := rs.w[i]; wi != 0 {
					rs.xB[i] -= dir * theta * wi
					rs.updateSgnAt(int(i))
				}
			}
		} else {
			for i, wi := range rs.w {
				if i == r || wi == 0 {
					continue
				}
				rs.xB[i] -= dir * theta * wi
				rs.updateSgnAt(i)
			}
		}
	}
	v := rs.basisVar[r]
	rs.status[v] = leaveAt
	rs.posOf[v] = -1
	if leaveAt == nbUpper {
		if ubv := rs.ubOf(v); ubv != 0 {
			rs.addColTimes(v, -ubv, rs.beff)
		}
	}
	enterX := theta
	if rs.status[q] == nbUpper {
		enterX = rs.ub[q] - theta
		rs.addColTimes(int32(q), rs.ub[q], rs.beff)
	}
	rs.status[q] = inBasis
	rs.posOf[q] = int32(r)
	rs.basisVar[r] = int32(q)
	rs.xB[r] = enterX
	// The leaving position's ±1→0 sign transition is the cost
	// replacement the dual update already models; only an entering value
	// landing outside its bounds invalidates the maintained phase-1
	// duals.
	sg := sgnOfVal(enterX, rs.ub[q])
	if old := rs.sgn[r]; old != sg {
		if old != 0 {
			rs.ninf--
		}
		if sg != 0 {
			rs.ninf++
		}
		rs.sgn[r] = sg
	}
	if sg != 0 && rs.dPhase1 {
		rs.dStale = true
	}
	if rs.wSparse {
		rs.lu.addEtaSparse(rs.w, rs.wIdx, r)
	} else {
		rs.lu.addEta(rs.w, r)
	}
}

// refresh prepares a terminal status's confirmation: it refactorizes,
// recomputes the basic values exactly, rescans infeasibility and
// reprices. It reports false when the basic values are not finite.
func (rs *revised) refresh() bool {
	rs.lu.factorize(rs)
	if !rs.refreshXB() {
		return false
	}
	rs.rescanInfeasibility()
	rs.recomputeDuals(rs.ninf > 0)
	return true
}

// simplex drives the revised simplex over the standard form in s.sf. It
// returns ErrIterLimit when the pivot budget or the stall budget runs
// out and ErrNumerical when the basic values stop being finite or phase
// 1 finds no breakpoint; Solve checks an Optimal answer against the
// problem before it returns it.
//
// The loop is built around incremental state: reduced costs and devex
// weights update from each pivot row (recomputed from scratch only at
// refactorizations, phase switches and staleness events), feasibility
// signs update from each pivot's sparse delta, and FTRAN/BTRAN run
// hyper-sparse. Before declaring any terminal status the loop
// refactorizes and recomputes everything once ("fresh confirmation"), so
// accumulated drift can never produce a wrong Optimal, Infeasible or
// Unbounded answer. The pricing right after such a refresh, in phase 2,
// passes over a column whose fresh reduced cost lies within its own
// round-off (withinRoundoff), so two columns at a reduced cost of about
// −costTol cannot take turns entering, one refresh per pivot.
//
// The crash basis and its first factorization come from
// Solver.startBasis, restored when the matrix repeats a saved one bit
// for bit (see coldStart).
func (s *Solver) simplex() (Solution, error) {
	sf := &s.sf
	rs := &s.rev
	rs.build(sf)
	s.startBasis()
	if !rs.refreshXB() {
		return Solution{}, ErrNumerical
	}
	rs.rescanInfeasibility()

	maxIter := 200 + 60*(rs.m+rs.n)

	pivots := 0
	stall := 0
	fresh := true    // factors fresh and state rescanned since the last pivot
	confirm := false // refreshed to confirm a terminal status since the last pivot
	for {
		if pivots >= maxIter || stall > 8*stallWin {
			return Solution{}, ErrIterLimit
		}
		if rs.lu.needsRefactor() {
			rs.lu.factorize(rs)
			if !rs.refreshXB() {
				return Solution{}, ErrNumerical
			}
			rs.rescanInfeasibility()
			rs.dStale = true
			fresh = true
		}
		phase1 := rs.ninf > 0
		if rs.dStale || rs.dPhase1 != phase1 {
			rs.recomputeDuals(phase1)
		}
		q, d := rs.priceEnter(stall >= stallWin, confirm && !phase1)
		if q < 0 {
			if !fresh {
				if !rs.refresh() {
					return Solution{}, ErrNumerical
				}
				fresh, confirm = true, true
				continue
			}
			if rs.ninf > 0 {
				return Solution{Status: Infeasible, Iterations: pivots}, nil
			}
			break // optimal
		}
		dir := 1.0
		if rs.status[q] == nbUpper {
			dir = -1
		}
		aRow := rs.colRow[rs.colStart[q]:rs.colStart[q+1]]
		aVal := rs.colVal[rs.colStart[q]:rs.colStart[q+1]]
		rs.wIdx, rs.wSparse = rs.lu.ftranSparse(aRow, aVal, rs.w, rs.wIdx)
		theta, r, leaveAt, flip := rs.ratioTest(q, dir, phase1)
		if math.IsInf(theta, 1) {
			rs.clearW()
			if phase1 {
				// The composite objective is bounded below by zero, so a
				// breakpoint always exists in exact arithmetic.
				return Solution{}, ErrNumerical
			}
			if !fresh {
				// Stale factors can hide the blocking row; price and
				// test again on fresh ones before declaring Unbounded.
				if !rs.refresh() {
					return Solution{}, ErrNumerical
				}
				fresh, confirm = true, true
				continue
			}
			return Solution{Status: Unbounded, Iterations: pivots}, nil
		}
		progress := theta
		if flip {
			progress = rs.ub[q]
			rs.applyFlip(q, dir)
		} else {
			arq := rs.w[r]
			lv := rs.basisVar[r]
			sgnR := rs.sgn[r]
			rs.computePivotRow(r)
			rs.applyPivot(q, dir, r, theta, leaveAt)
			rs.updateDualsDevex(q, r, d, arq, lv, sgnR)
		}
		rs.clearW()
		fresh, confirm = false, false
		if progress*math.Abs(d) > improveE {
			stall = 0
		} else {
			stall++
		}
		pivots++
	}

	// Optimal: recover the standard-form vector and the exact objective.
	s.y = scratch.Zeroed(s.y, sf.ncols)
	obj := sf.offset
	for j := 0; j < rs.nstruct; j++ {
		switch rs.status[j] {
		case nbUpper:
			s.y[j] = rs.ub[j]
		case inBasis:
			s.y[j] = rs.xB[rs.posOf[j]]
		}
		obj += sf.costs[j] * s.y[j]
	}
	s.vals = scratch.Zeroed(s.vals, len(sf.recover))
	sf.recoverValuesInto(s.y, s.vals)
	return Solution{
		Status:     Optimal,
		Objective:  obj,
		Iterations: pivots,
		values:     s.vals,
	}, nil
}
