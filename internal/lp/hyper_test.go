package lp

import (
	"math"
	"math/rand"
	"testing"
)

// newRevisedForTest builds the revised-simplex state for p (crash basis,
// LU factors, no pivots yet) so the hyper-sparse kernels can be driven
// directly against the dense reference solves.
func newRevisedForTest(p *Problem) *Solver {
	var s Solver
	p.buildStandardForm(&s.sf)
	rs := &s.rev
	rs.build(&s.sf)
	rs.crash(&s.sf)
	rs.lu.factorize(rs)
	return &s
}

// ftranRef computes the dense-reference FTRAN image of column j into ref.
func ftranRef(rs *revised, j int, ref []float64) {
	for i := range rs.acol {
		rs.acol[i] = 0
	}
	for i := rs.colStart[j]; i < rs.colStart[j+1]; i++ {
		rs.acol[rs.colRow[i]] = rs.colVal[i]
	}
	rs.lu.ftran(rs.acol, ref)
}

// checkFtranColumn runs ftranSparse on column j and fails unless the
// result matches the dense ftran reference at every position. The w
// buffer's all-zero invariant is restored before returning.
func checkFtranColumn(t *testing.T, rs *revised, j int, tag string) {
	t.Helper()
	ref := make([]float64, rs.m)
	ftranRef(rs, j, ref)
	aRow := rs.colRow[rs.colStart[j]:rs.colStart[j+1]]
	aVal := rs.colVal[rs.colStart[j]:rs.colStart[j+1]]
	rs.wIdx, rs.wSparse = rs.lu.ftranSparse(aRow, aVal, rs.w, rs.wIdx)
	for i := 0; i < rs.m; i++ {
		if d := math.Abs(rs.w[i] - ref[i]); d > 1e-9*(1+math.Abs(ref[i])) {
			t.Fatalf("%s: ftranSparse col %d mismatch at pos %d: sparse %g dense %g (sparse path %v)",
				tag, j, i, rs.w[i], ref[i], rs.wSparse)
		}
	}
	if rs.wSparse {
		// The pattern must cover every nonzero of the result.
		on := make(map[int32]bool, len(rs.wIdx))
		for _, i := range rs.wIdx {
			on[i] = true
		}
		for i := 0; i < rs.m; i++ {
			if ref[i] != 0 && !on[int32(i)] {
				t.Fatalf("%s: ftranSparse col %d pattern misses nonzero pos %d (%g)", tag, j, i, ref[i])
			}
		}
	}
	for i := range rs.w {
		rs.w[i] = 0
	}
	rs.wIdx = rs.wIdx[:0]
	rs.wSparse = false
}

// checkBtranUnitPos runs btranUnit for basis position r and fails unless
// the result matches the dense btran of the unit vector e_r.
func checkBtranUnitPos(t *testing.T, rs *revised, r int, tag string) {
	t.Helper()
	ref := make([]float64, rs.m)
	for i := range rs.cB {
		rs.cB[i] = 0
	}
	rs.cB[r] = 1
	rs.lu.btran(rs.cB, ref)
	rs.rhoIdx, rs.rhoSparse = rs.lu.btranUnit(int32(r), rs.rho, rs.rhoIdx)
	for i := 0; i < rs.m; i++ {
		if d := math.Abs(rs.rho[i] - ref[i]); d > 1e-9*(1+math.Abs(ref[i])) {
			t.Fatalf("%s: btranUnit pos %d mismatch at row %d: sparse %g dense %g (sparse path %v)",
				tag, r, i, rs.rho[i], ref[i], rs.rhoSparse)
		}
	}
	if rs.rhoSparse {
		on := make(map[int32]bool, len(rs.rhoIdx))
		for _, i := range rs.rhoIdx {
			on[i] = true
		}
		for i := 0; i < rs.m; i++ {
			if ref[i] != 0 && !on[int32(i)] {
				t.Fatalf("%s: btranUnit pos %d pattern misses nonzero row %d (%g)", tag, r, i, ref[i])
			}
		}
	}
	rs.clearRho()
	rs.rhoIdx = rs.rhoIdx[:0]
	rs.rhoSparse = false
}

// TestHyperSparseFtranMatchesDense drives ftranSparse over every priced
// column of random staircase instances — first on the fresh
// factorization, then again after product-form etas accumulate — and
// requires exact agreement with the dense ftran at every position.
func TestHyperSparseFtranMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(9001))
	for it := 0; it < 25; it++ {
		g := genStaircaseLP(r)
		g.unbVar = false
		p := g.build()
		s := newRevisedForTest(p)
		rs := &s.rev
		for j := 0; j < rs.n; j++ {
			checkFtranColumn(t, rs, j, "fresh")
		}
		// Append etas from real column images to stress the eta stage,
		// pivoting a spread of positions (including repeats).
		w := make([]float64, rs.m)
		for e := 0; e < 6 && e < rs.n; e++ {
			ftranRef(rs, e%rs.n, w)
			pos := (e * 7) % rs.m
			if math.Abs(w[pos]) < 1e-6 {
				w[pos] = 1 + float64(e)
			}
			rs.lu.addEta(w, pos)
			for i := range w {
				w[i] = 0
			}
		}
		for j := 0; j < rs.n; j++ {
			checkFtranColumn(t, rs, j, "eta")
		}
	}
}

// TestHyperSparseBtranUnitMatchesDense is the BTRAN analogue: every
// basis position's unit solve must agree with the dense btran, fresh and
// with an eta file in play.
func TestHyperSparseBtranUnitMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(9002))
	for it := 0; it < 25; it++ {
		g := genStaircaseLP(r)
		g.unbVar = false
		p := g.build()
		s := newRevisedForTest(p)
		rs := &s.rev
		for pos := 0; pos < rs.m; pos++ {
			checkBtranUnitPos(t, rs, pos, "fresh")
		}
		w := make([]float64, rs.m)
		for e := 0; e < 6 && e < rs.n; e++ {
			ftranRef(rs, (e*3)%rs.n, w)
			pos := (e * 5) % rs.m
			if math.Abs(w[pos]) < 1e-6 {
				w[pos] = 2
			}
			rs.lu.addEta(w, pos)
			for i := range w {
				w[i] = 0
			}
		}
		for pos := 0; pos < rs.m; pos++ {
			checkBtranUnitPos(t, rs, pos, "eta")
		}
	}
}

// placeholderProblem builds an all-EQ system whose columns all have two
// entries, so the triangular crash covers nothing and every basis
// position starts as a placeholder unit column — the identity-basis
// corner of the hyper-sparse kernels.
func placeholderProblem(m int) *Problem {
	p := NewProblem()
	ids := make([]VarID, m)
	for i := range ids {
		ids[i] = p.AddVariable("x", 0, 10, 1)
	}
	for i := 0; i < m; i++ {
		a, b := ids[i], ids[(i+1)%m]
		p.AddConstraint(EQ, 1, Term{a, 1}, Term{b, 0.5})
	}
	return p
}

// TestHyperSparseEtaChains drives the kernels through pathological eta
// files on an identity (all-placeholder) basis: a long dependency chain
// threading every position, repeated pivots of the same position, and
// fills dense enough to force the sparse→dense threshold crossing
// mid-solve. Every case must match the dense reference exactly.
func TestHyperSparseEtaChains(t *testing.T) {
	const m = 48
	build := func() *revised {
		s := newRevisedForTest(placeholderProblem(m))
		rs := &s.rev
		if rs.m != m {
			t.Fatalf("expected %d rows, got %d", m, rs.m)
		}
		for pos := 0; pos < m; pos++ {
			if int(rs.basisVar[pos]) < rs.n {
				t.Fatalf("crash covered position %d; want all placeholders", pos)
			}
		}
		return rs
	}

	w := make([]float64, m)
	setEta := func(rs *revised, pos int, diag float64, support map[int]float64) {
		for i := range w {
			w[i] = 0
		}
		w[pos] = diag
		for i, v := range support {
			w[i] = v
		}
		rs.lu.addEta(w, pos)
	}

	t.Run("long chain", func(t *testing.T) {
		rs := build()
		// Eta e pivots position e and spills into e+1: a chain the
		// backward eta scan must walk end to end.
		for e := 0; e+1 < m && e < maxEtas-1; e++ {
			setEta(rs, e, 2, map[int]float64{e + 1: 0.5})
		}
		for j := 0; j < rs.n; j++ {
			checkFtranColumn(t, rs, j, "chain")
		}
		for pos := 0; pos < m; pos++ {
			checkBtranUnitPos(t, rs, pos, "chain")
		}
	})

	t.Run("repeated position", func(t *testing.T) {
		rs := build()
		// The same position re-pivots repeatedly with shifting support —
		// the per-position entry chains must surface every occurrence.
		for e := 0; e < 12; e++ {
			setEta(rs, 5, 1+float64(e%3), map[int]float64{
				(7 * e) % m:    0.25,
				(11*e + 1) % m: -0.5,
			})
		}
		for j := 0; j < rs.n; j++ {
			checkFtranColumn(t, rs, j, "repeat")
		}
		for pos := 0; pos < m; pos++ {
			checkBtranUnitPos(t, rs, pos, "repeat")
		}
	})

	t.Run("dense crossing", func(t *testing.T) {
		rs := build()
		thr := rs.lu.hyperThreshold()
		// A dependency chain longer than the density threshold: positions
		// off the chain resolve with tiny sparse patterns, positions deep
		// in the chain push the pattern past the threshold and must cross
		// to the dense fallback kernels. Both sides must agree with the
		// reference, and both must actually occur.
		for e := 0; e < thr+8 && e+1 < m; e++ {
			setEta(rs, e, 2, map[int]float64{e + 1: 0.5})
		}
		sawDense, sawSparse := false, false
		for pos := 0; pos < m; pos++ {
			rs.rhoIdx, rs.rhoSparse = rs.lu.btranUnit(int32(pos), rs.rho, rs.rhoIdx)
			if rs.rhoSparse {
				sawSparse = true
			} else {
				sawDense = true
			}
			rs.clearRho()
			rs.rhoIdx = rs.rhoIdx[:0]
			rs.rhoSparse = false
			checkBtranUnitPos(t, rs, pos, "crossing")
		}
		if !sawDense || !sawSparse {
			t.Fatalf("threshold %d not crossed both ways: dense=%v sparse=%v", thr, sawDense, sawSparse)
		}
		for j := 0; j < rs.n; j++ {
			checkFtranColumn(t, rs, j, "crossing")
		}
	})
}

// TestSolverReuseReproducesPivotSequence is the solver-state reset gate:
// a Solver that already solved other models must reproduce a fresh
// solver's exact pivot sequence — iteration count, status and
// bit-identical objective — on the next model. Any pricing cursor, stall
// counter, eta file, devex weight or feasibility sign leaking across
// solves shows up here as a diverged trajectory.
func TestSolverReuseReproducesPivotSequence(t *testing.T) {
	r := rand.New(rand.NewSource(777))
	var reused Solver
	for i := 0; i < 120; i++ {
		warmup := genStaircaseLP(r).build()
		if i%2 != 0 {
			warmup = rowForm(warmup)
		}
		_, _ = reused.Solve(warmup) // arbitrary prior state, errors included

		g := genStaircaseLP(r)
		p := g.build()
		if i%3 == 0 {
			p = rowForm(p)
		}

		var fresh Solver
		fsol, ferr := fresh.Solve(p)
		rsol, rerr := reused.Solve(p)
		if (ferr == nil) != (rerr == nil) {
			t.Fatalf("case %d: error divergence fresh %v reused %v", i, ferr, rerr)
		}
		if ferr != nil {
			continue
		}
		if fsol.Status != rsol.Status || fsol.Iterations != rsol.Iterations || fsol.Objective != rsol.Objective {
			t.Fatalf("case %d: reused solver diverged: fresh %v/%d/%v, reused %v/%d/%v", i,
				fsol.Status, fsol.Iterations, fsol.Objective,
				rsol.Status, rsol.Iterations, rsol.Objective)
		}
	}
}

// TestNeedsRefactorClampTinyBasis pins the refactorization cadence for
// small bases: the fill bound is etaFillFactor·m clamped from below by
// minEtaFill, so an m=2 basis is not refactorized every couple of
// pivots.
func TestNeedsRefactorClampTinyBasis(t *testing.T) {
	lu := &basisLU{m: 2}
	lu.neta = 10
	lu.eval = make([]float64, 40)
	if lu.needsRefactor() {
		t.Fatalf("m=2 with 40 eta entries refactorized below the %d-entry clamp", minEtaFill)
	}
	lu.eval = make([]float64, minEtaFill+1)
	if !lu.needsRefactor() {
		t.Fatal("fill past the clamp must refactorize")
	}
	lu.eval = lu.eval[:0]
	lu.neta = maxEtas
	if !lu.needsRefactor() {
		t.Fatal("eta count at maxEtas must refactorize")
	}
	// Above the clamp the fill bound scales with m again.
	big := &basisLU{m: 100}
	big.eval = make([]float64, minEtaFill+1)
	if big.needsRefactor() {
		t.Fatal("large basis must use etaFillFactor*m, not the small-m clamp")
	}
}

// TestSmallBasisPivotChainRefactorCadence runs tiny staircase instances
// end to end and checks the solver did not refactorize on nearly every
// pivot — the failure mode of the unclamped fill bound.
func TestSmallBasisPivotChainRefactorCadence(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	for i := 0; i < 60; i++ {
		g := genStaircaseLP(r)
		g.h = 1 + r.Intn(2) // 1-2 slots: m of a handful
		g.supply = make([]float64, g.h)
		g.sCost = make([]float64, g.h)
		g.uCost = make([]float64, g.h)
		for j := 0; j < g.h; j++ {
			g.supply[j] = q4(r.Float64() * 3)
			g.sCost[j] = q4(r.Float64() * 4)
			g.uCost[j] = q4(r.Float64()*2 - 0.5)
		}
		g.demand = q4(r.Float64() * (g.b0 + 2))
		g.dueSlot = g.h - 1
		g.fixC = -1
		g.unbVar = false
		p := g.build()
		var s Solver
		sol, err := s.Solve(p)
		if err != nil {
			continue
		}
		nf := s.rev.lu.nfactor
		// One initial factorization plus at most the cadence-driven
		// rebuilds: pivots/maxEtas from the count bound (the fill bound
		// cannot fire below minEtaFill entries on these tiny bases).
		allowed := 2 + sol.Iterations/maxEtas + sol.Iterations/(minEtaFill/4)
		if nf > allowed {
			t.Fatalf("case %d: %d factorizations for %d pivots on a tiny basis (allowed %d)",
				i, nf, sol.Iterations, allowed)
		}
	}
}
