package lp

import (
	"math"
	"math/bits"
)

// Devex reference-framework pricing for the sparse revised simplex
// (Forrest & Goldfarb's approximate steepest edge). Each priced column
// carries a weight γ_j approximating ‖B⁻¹A_j‖² over the current
// reference framework; the entering column maximizes d_j²/γ_j, which
// steers the solve toward pivots that make real progress and cuts pivot
// counts on the staircase horizon LPs versus Dantzig pricing. Weights
// update from the pivot row's support only, so the cost per pivot is
// proportional to the pivot row's fill — the same hyper-sparse budget
// the FTRAN/BTRAN kernels run on. When the largest weight outgrows
// devexWeightMax the framework is re-anchored (all weights reset to 1);
// both the updates and the reset are deterministic functions of the
// pivot sequence.
const devexWeightMax = 1e8

// resetDevexWeights re-anchors the reference framework at the current
// basis: every priced column's weight returns to 1.
func (rs *revised) resetDevexWeights() {
	for j := range rs.gamma {
		rs.gamma[j] = 1
	}
	rs.gammaMax = 1
}

// recomputeDuals rebuilds the maintained reduced costs, and the
// eligible set with them, from scratch for the given phase: cB from the
// composite violation signs (phase 1) or the true costs (phase 2), one
// dense btran for y, then one pass over every priced column. Called at
// solve start, after refactorizations, on phase switches and whenever
// the incremental updates are flagged stale — an amortized
// O(m + nnz + n) complement to the per-pivot updates in
// updateDualsDevex.
func (rs *revised) recomputeDuals(phase1 bool) {
	for i := 0; i < rs.m; i++ {
		if phase1 {
			rs.cB[i] = float64(rs.sgn[i])
		} else if v := rs.basisVar[i]; int(v) < rs.n {
			rs.cB[i] = rs.cost[v]
		} else {
			rs.cB[i] = 0
		}
	}
	rs.lu.btran(rs.cB, rs.y)
	for j := 0; j < rs.n; j++ {
		d := -rs.colDot(j)
		if !phase1 {
			d += rs.cost[j]
		}
		rs.d[j] = d
		rs.markEligible(j)
	}
	rs.dPhase1 = phase1
	rs.dStale = false
}

// eligible reports whether column j may enter: it is nonbasic, not fixed
// at zero, and its reduced cost improves the objective from the bound
// it sits at by more than costTol.
func (rs *revised) eligible(j int) bool {
	st := rs.status[j]
	if st == inBasis || rs.ub[j] == 0 {
		return false
	}
	if st == nbLower {
		return rs.d[j] < -costTol
	}
	return rs.d[j] > costTol
}

// markEligible brings column j's bit in the eligible set in step with
// its reduced cost and status. Every write to d or to a priced column's
// status calls it: recomputeDuals, updateDualsDevex and applyFlip.
func (rs *revised) markEligible(j int) {
	w, b := j>>6, uint64(1)<<(uint(j)&63)
	if rs.eligible(j) {
		rs.elig[w] |= b
	} else {
		rs.elig[w] &^= b
	}
}

// nextEligible returns the first eligible column in [j, hi), or hi when
// there is none.
func (rs *revised) nextEligible(j, hi int) int {
	for j < hi {
		if w := rs.elig[j>>6] >> (uint(j) & 63); w != 0 {
			return min(j+bits.TrailingZeros64(w), hi)
		}
		j = (j | 63) + 1
	}
	return hi
}

// withinRoundoff reports whether column j's reduced cost lies within its
// own round-off, |d_j| ≤ costTol·(1 + |c_j| + Σ_i |y_i·a_ij|): costTol
// relative to the magnitudes of the terms d_j = c_j − yᵀA_j sums. Only
// the confirmation pricing after a refresh asks (phase 2, y fresh from
// recomputeDuals); such a column counts as zero there and does not
// enter.
func (rs *revised) withinRoundoff(j int) bool {
	s := 1 + math.Abs(rs.cost[j])
	for i := rs.colStart[j]; i < rs.colStart[j+1]; i++ {
		s += math.Abs(rs.y[rs.colRow[i]] * rs.colVal[i])
	}
	return math.Abs(rs.d[j]) <= costTol*s
}

// priceEnter selects the entering column from the eligible set. In the
// normal mode it scans rotating fixed-size segments of the column range
// and takes the best devex score d²/γ of the first segment holding any
// eligible column, ties to the lowest column; in Bland mode
// (anti-cycling) it takes the lowest-numbered eligible column. With
// confirm set — the pricing right after a confirmation refresh in
// phase 2 — a column whose reduced cost lies within its own round-off
// (withinRoundoff) is passed over. All modes are deterministic. The
// returned d is the reduced cost (negative for an at-lower entry,
// positive for at-upper); q is -1 when no column qualifies.
func (rs *revised) priceEnter(bland, confirm bool) (int, float64) {
	if bland {
		for j := rs.nextEligible(0, rs.n); j < rs.n; j = rs.nextEligible(j+1, rs.n) {
			if !confirm || !rs.withinRoundoff(j) {
				return j, rs.d[j]
			}
		}
		return -1, 0
	}
	// Segment size trades scan cost against pivot quality: scanning a
	// fixed fraction of the columns each pivot keeps the scan cost
	// proportional to the problem while the devex scores keep the chosen
	// pivots effective. n/32 measured as fast as n/8 on the annual
	// horizon LP with no pivot-count regression; the 256 floor keeps
	// small problems effectively fully priced.
	seg := rs.n / 32
	if seg < 256 {
		seg = 256
	}
	nseg := (rs.n + seg - 1) / seg
	if nseg == 0 {
		nseg = 1
	}
	for s := 0; s < nseg; s++ {
		si := (rs.rotor + s) % nseg
		lo := si * seg
		hi := min(lo+seg, rs.n)
		bestJ, bestS := -1, 0.0
		for j := rs.nextEligible(lo, hi); j < hi; j = rs.nextEligible(j+1, hi) {
			if confirm && rs.withinRoundoff(j) {
				continue
			}
			d := rs.d[j]
			if sc := d * d / rs.gamma[j]; sc > bestS {
				bestJ, bestS = j, sc
			}
		}
		if bestJ >= 0 {
			rs.rotor = si
			return bestJ, rs.d[bestJ]
		}
	}
	return -1, 0
}

// computePivotRow computes ρ = B⁻ᵀe_r (hyper-sparse when the basis
// allows) and scatters the pivot row α_j = ρᵀA_j over the priced
// columns into rs.alpha/rs.alphaIdx. Must run against the pre-pivot
// factorization, before applyPivot appends the pivot's eta.
func (rs *revised) computePivotRow(r int) {
	rs.rhoIdx, rs.rhoSparse = rs.lu.btranUnit(int32(r), rs.rho, rs.rhoIdx)
	rs.alphaIdx = rs.alphaIdx[:0]
	if rs.rhoSparse {
		for _, row := range rs.rhoIdx {
			rs.priceRow(row)
		}
	} else {
		for row := 0; row < rs.m; row++ {
			rs.priceRow(int32(row))
		}
	}
}

// priceRow accumulates one row's contribution to the pivot row: the
// structural entries come from the standard form's row-major storage,
// the slack entry from the row's recorded slack sign.
func (rs *revised) priceRow(row int32) {
	pr := rs.rho[row]
	if pr == 0 {
		return
	}
	sf := rs.sf
	for e := sf.rowStart[row]; e < sf.rowStart[row+1]; e++ {
		j := sf.rcol[e]
		if !rs.amark[j] {
			rs.amark[j] = true
			rs.alphaIdx = append(rs.alphaIdx, j)
		}
		rs.alpha[j] += pr * sf.rval[e]
	}
	if s := rs.slackOf[row]; s >= 0 {
		if !rs.amark[s] {
			rs.amark[s] = true
			rs.alphaIdx = append(rs.alphaIdx, s)
		}
		rs.alpha[s] += pr * rs.slackSign[row]
	}
}

// updateDualsDevex applies the pivot's rank-one update to the maintained
// reduced costs, their eligible bits and the devex weights over the
// pivot row's support, then clears the alpha/rho scratch. Runs after
// applyPivot (statuses already reflect the new basis), with the
// pre-pivot reduced cost dq of the entering column, the pivot element
// arq, the leaving column lv and the pre-pivot feasibility sign sgnR of
// the pivot position. The update
// assumes the leaving variable exits at a bound with cost replacement
// d_q/α_rq — exactly the transition the ratio test constructs; landings
// outside a bound are flagged stale elsewhere.
//
// The leaving column is set explicitly rather than through the loop:
// its maintained d went stale while it was basic (basic columns are
// skipped). Its true pre-pivot reduced cost is its nonbasic cost minus
// yᵀA_lv = cB[r] — zero in phase 2, where basic and nonbasic costs
// coincide, but −sgnR in phase 1, where the composite cost of a basic
// variable at an infeasible position differs from its nonbasic cost of
// zero.
func (rs *revised) updateDualsDevex(q, r int, dq, arq float64, lv int32, sgnR int8) {
	ratio := dq / arq
	gscale := rs.gamma[q] / (arq * arq)
	for _, j := range rs.alphaIdx {
		a := rs.alpha[j]
		rs.alpha[j] = 0
		rs.amark[j] = false
		if int(j) == q || rs.status[j] == inBasis {
			continue
		}
		rs.d[j] -= ratio * a
		rs.markEligible(int(j))
		if g := a * a * gscale; g > rs.gamma[j] {
			rs.gamma[j] = g
			if g > rs.gammaMax {
				rs.gammaMax = g
			}
		}
	}
	rs.d[q] = 0
	rs.markEligible(q)
	if int(lv) < rs.n {
		dlv := -ratio
		if rs.dPhase1 {
			dlv -= float64(sgnR)
		}
		rs.d[lv] = dlv
		rs.markEligible(int(lv))
		g := gscale
		if g < 1 {
			g = 1
		}
		rs.gamma[lv] = g
		if g > rs.gammaMax {
			rs.gammaMax = g
		}
	}
	rs.clearRho()
	if rs.gammaMax > devexWeightMax {
		rs.resetDevexWeights()
	}
}

// clearRho restores the all-zero invariant of the btranUnit output
// buffer, over the sparse pattern when one is available.
func (rs *revised) clearRho() {
	if rs.rhoSparse {
		for _, i := range rs.rhoIdx {
			rs.rho[i] = 0
		}
	} else {
		for i := range rs.rho {
			rs.rho[i] = 0
		}
	}
}

// clearW restores the all-zero invariant of the ftran output buffer.
func (rs *revised) clearW() {
	if rs.wSparse {
		for _, i := range rs.wIdx {
			rs.w[i] = 0
		}
	} else {
		for i := range rs.w {
			rs.w[i] = 0
		}
	}
}

// sgnOfVal classifies a basic value against [0, ub] with a scale-aware
// tolerance: the absolute feasTol is widened proportionally to the
// magnitude of the value/bound, so annual-scale rows (basic values in
// the thousands) are not flagged infeasible by plain float round-off.
// Problem.feasible checks the recovered answer with the same tolerance.
// Returns -1 below the lower bound, +1 above the upper, 0 when feasible.
func sgnOfVal(x, ub float64) int8 {
	if x < -feasTol*(1+math.Abs(x)) {
		return -1
	}
	if x > ub+feasTol*(1+ub) {
		return 1
	}
	return 0
}

// rescanInfeasibility rebuilds the incremental feasibility signs and
// counter from the current basic values and returns the summed
// violation. O(m); called at solve start, after refactorizations and at
// terminal-status confirmation — the per-pivot path updates signs only
// over the pivot's sparse support.
func (rs *revised) rescanInfeasibility() float64 {
	rs.ninf = 0
	f := 0.0
	for i, x := range rs.xB {
		ubv := rs.ubOf(rs.basisVar[i])
		sg := sgnOfVal(x, ubv)
		rs.sgn[i] = sg
		if sg < 0 {
			rs.ninf++
			f -= x
		} else if sg > 0 {
			rs.ninf++
			f += x - ubv
		}
	}
	return f
}

// updateSgnAt re-classifies one basis position after its value moved,
// maintaining the infeasibility counter. An unexpected sign change while
// phase-1 duals are maintained invalidates them (the composite costs
// changed under the pricing), so the next iteration recomputes.
func (rs *revised) updateSgnAt(i int) {
	sg := sgnOfVal(rs.xB[i], rs.ubOf(rs.basisVar[i]))
	old := rs.sgn[i]
	if sg == old {
		return
	}
	if old != 0 {
		rs.ninf--
	}
	if sg != 0 {
		rs.ninf++
	}
	rs.sgn[i] = sg
	if rs.dPhase1 {
		rs.dStale = true
	}
}
