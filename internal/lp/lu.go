package lp

import "github.com/smartdpss/smartdpss/internal/scratch"

// luPivotTol is the smallest pivot magnitude factorize accepts before
// declaring a column numerically dependent and patching the basis with a
// placeholder unit column (see factorize). It sits well below the ratio
// test's pivotTol so a basis the pivot loop was willing to enter is
// normally factorizable as-is.
const luPivotTol = 1e-10

// Eta-file refactorization cadence: the basis is refactorized from
// scratch after maxEtas product-form updates, or earlier when the eta
// file's fill exceeds etaFillFactor nonzeros per row — but never before
// the fill reaches minEtaFill, so tiny bases (where etaFillFactor·m is a
// handful of entries) cannot thrash a refactorization every pivot. All
// triggers are deterministic functions of the pivot sequence, so solve
// results do not depend on timing or memory pressure.
const (
	maxEtas       = 64
	etaFillFactor = 16
	minEtaFill    = 64
)

// Hyper-sparse density threshold: ftranSparse/btranUnit keep their
// solutions as index lists while the pattern covers at most
// 1/hyperDenseDiv of the basis, and fall back to the dense loops past
// that (graph traversal overhead exceeds a plain sweep once the vector
// fills in). The floor keeps tiny bases on the sparse path so the parity
// and fuzz harnesses exercise it.
const (
	hyperDenseDiv     = 4
	hyperPatternFloor = 4
)

// basisLU holds an LU factorization of the simplex basis in product
// form: a sequence of elimination stages L_k (each clearing one pivot
// row) and a permuted upper-triangular factor, plus an eta file of
// rank-one updates appended by pivots since the last refactorization.
// The factorization is computed column-by-column in the style of
// Gilbert–Peierls: a depth-first search over the partially built L graph
// finds the fill pattern of each incoming column, and the numeric
// elimination then touches only that pattern. Columns are processed in
// ascending nonzero count — a cheap, deterministic approximation of
// Markowitz ordering that keeps fill near zero on the staircase bases
// the horizon LPs produce (most columns are singletons or couple two
// adjacent slots).
//
// All storage is flat and reused across factorizations; after the first
// few solves of a fixed-shape problem sequence the type allocates
// nothing.
type basisLU struct {
	m  int
	nk int // elimination steps completed (== m after factorize)

	// L stages in elimination order. Stage k eliminates pivot row
	// prow[k]; its off-pivot multipliers are lrow/lval[lstart[k]:lstart[k+1]].
	lstart []int32
	lrow   []int32
	lval   []float64

	// U columns in elimination order. Column k's off-diagonal entries
	// sit in rows that are pivot rows of earlier stages; urow stores the
	// elimination index of that stage (always < k).
	ustart []int32
	urow   []int32
	uval   []float64
	udiag  []float64

	prow   []int32 // elimination step -> pivot row
	pcol   []int32 // elimination step -> basis position
	kOfRow []int32 // row -> elimination step, -1 while unpivoted

	// Eta file: product-form updates appended by pivots. Eta e replaces
	// basis position epos[e]; ediag[e] is the pivot element of the
	// update column and erow/eval its off-pivot entries (basis
	// positions).
	neta   int
	estart []int32
	erow   []int32
	eval   []float64
	epos   []int32
	ediag  []float64

	// Per-position chains over the eta entries: eHead[p] is the latest
	// entry whose support row is p (-1 when none), eNext links back to
	// the previous one, eOf names the owning eta. btranUnit walks the
	// chains of its pattern positions to find the etas whose support it
	// touches, instead of scanning the whole file; ecand flags them
	// during one call.
	eHead []int32
	eNext []int32
	eOf   []int32
	ecand []bool

	// deficient counts the basis positions the last factorize had to
	// patch with placeholder unit columns (numerically dependent basis).
	deficient int

	// nfactor counts factorizations since the solver state was built;
	// observability for tests of the refactorization cadence.
	nfactor int

	// Transposed factor adjacency, rebuilt by factorize for the
	// hyper-sparse btranUnit. For each elimination step k, utK/utV list
	// the later steps whose U column references k (with the referencing
	// value), and ltK/ltV the steps whose L column references pivot row
	// prow[k]. kOfPos inverts pcol (basis position -> elimination step).
	utStart []int32
	utK     []int32
	utV     []float64
	ltStart []int32
	ltK     []int32
	ltV     []float64
	kOfPos  []int32

	// scratch, reused across calls
	x     []float64 // dense accumulator, kept all-zero between columns
	mark  []bool    // visited rows of the current column's DFS
	stack []int32   // DFS node stack
	si    []int32   // DFS per-depth child cursor
	topo  []int32   // DFS postorder (reverse = topological)
	topo2 []int32   // second postorder list for the two-stage sparse solves
	order []int32   // positions in factorization order
	cnt   []int32   // counting-sort buckets
	tk    []float64 // btran intermediate, by elimination index
	cs    []float64 // btranUnit position-space accumulator, all-zero invariant
	tks   []float64 // btranUnit step-space accumulator, all-zero invariant
}

// factorize rebuilds the LU factors from the current basis of rs and
// clears the eta file. Numerically dependent columns are replaced in
// rs's basis by placeholder unit columns (fixed at zero), which restores
// nonsingularity without aborting the solve; the caller observes the
// patch through lu.deficient and rs's updated statuses.
func (lu *basisLU) factorize(rs *revised) {
	lu.reset(rs.m)
	lu.sortByColumnNnz(rs)
	for _, pos := range lu.order {
		lu.factorColumn(rs, int(pos))
	}
	lu.buildTransposes()
	lu.nfactor++
}

// restoreFactors installs factors that copyFactors saved from an
// earlier factorize, leaving lu as that factorize left it.
func (lu *basisLU) restoreFactors(src *basisLU) {
	lu.reset(src.m)
	lu.copyFactors(src)
	lu.nfactor++
}

// copyFactors copies into lu what factorize computes: the L and U
// factors and their transposed adjacency.
func (lu *basisLU) copyFactors(src *basisLU) {
	lu.m, lu.nk, lu.deficient = src.m, src.nk, src.deficient
	lu.lstart = append(lu.lstart[:0], src.lstart...)
	lu.lrow = append(lu.lrow[:0], src.lrow...)
	lu.lval = append(lu.lval[:0], src.lval...)
	lu.ustart = append(lu.ustart[:0], src.ustart...)
	lu.urow = append(lu.urow[:0], src.urow...)
	lu.uval = append(lu.uval[:0], src.uval...)
	lu.udiag = append(lu.udiag[:0], src.udiag...)
	lu.prow = append(lu.prow[:0], src.prow...)
	lu.pcol = append(lu.pcol[:0], src.pcol...)
	lu.kOfRow = append(lu.kOfRow[:0], src.kOfRow...)
	lu.kOfPos = append(lu.kOfPos[:0], src.kOfPos...)
	lu.utStart = append(lu.utStart[:0], src.utStart...)
	lu.utK = append(lu.utK[:0], src.utK...)
	lu.utV = append(lu.utV[:0], src.utV...)
	lu.ltStart = append(lu.ltStart[:0], src.ltStart...)
	lu.ltK = append(lu.ltK[:0], src.ltK...)
	lu.ltV = append(lu.ltV[:0], src.ltV...)
}

// reset empties the factors and the eta file and sizes the scratch for
// an m-row basis, restoring its all-zero invariants.
func (lu *basisLU) reset(m int) {
	lu.m = m
	lu.nk = 0
	lu.neta = 0
	lu.deficient = 0
	lu.lstart = append(lu.lstart[:0], 0)
	lu.lrow = lu.lrow[:0]
	lu.lval = lu.lval[:0]
	lu.ustart = append(lu.ustart[:0], 0)
	lu.urow = lu.urow[:0]
	lu.uval = lu.uval[:0]
	lu.udiag = scratch.For(lu.udiag, m)
	lu.prow = scratch.For(lu.prow, m)
	lu.pcol = scratch.For(lu.pcol, m)
	lu.kOfRow = scratch.For(lu.kOfRow, m)
	lu.estart = append(lu.estart[:0], 0)
	lu.erow = lu.erow[:0]
	lu.eval = lu.eval[:0]
	lu.epos = lu.epos[:0]
	lu.ediag = lu.ediag[:0]
	lu.eNext = lu.eNext[:0]
	lu.eOf = lu.eOf[:0]
	lu.eHead = scratch.For(lu.eHead, m)
	for i := range lu.eHead {
		lu.eHead[i] = -1
	}
	for i := range lu.kOfRow {
		lu.kOfRow[i] = -1
	}
	lu.x = scratch.Zeroed(lu.x, m)
	lu.mark = scratch.Zeroed(lu.mark, m)
	lu.stack = scratch.For(lu.stack, m)
	lu.si = scratch.For(lu.si, m)
	lu.topo = lu.topo[:0]
	lu.topo2 = lu.topo2[:0]
	lu.tk = scratch.For(lu.tk, m)
	lu.cs = scratch.Zeroed(lu.cs, m)
	lu.tks = scratch.Zeroed(lu.tks, m)
}

// buildTransposes derives the transposed adjacency of the U and L
// factors (counting-sort CSR builds, deterministic) plus the inverse
// basis-position permutation. The hyper-sparse btranUnit needs these to
// run its reachability DFS in the transposed direction.
func (lu *basisLU) buildTransposes() {
	m := lu.m
	lu.kOfPos = scratch.For(lu.kOfPos, m)
	for k := 0; k < m; k++ {
		lu.kOfPos[lu.pcol[k]] = int32(k)
	}

	lu.utStart = scratch.Zeroed(lu.utStart, m+1)
	for _, src := range lu.urow {
		lu.utStart[src+1]++
	}
	for k := 0; k < m; k++ {
		lu.utStart[k+1] += lu.utStart[k]
	}
	lu.utK = scratch.For(lu.utK, len(lu.urow))
	lu.utV = scratch.For(lu.utV, len(lu.urow))
	copy(lu.cnt[:m], lu.utStart[:m])
	for k2 := 0; k2 < m; k2++ {
		for i := lu.ustart[k2]; i < lu.ustart[k2+1]; i++ {
			src := lu.urow[i]
			lu.utK[lu.cnt[src]] = int32(k2)
			lu.utV[lu.cnt[src]] = lu.uval[i]
			lu.cnt[src]++
		}
	}

	lu.ltStart = scratch.Zeroed(lu.ltStart, m+1)
	for _, r := range lu.lrow {
		lu.ltStart[lu.kOfRow[r]+1]++
	}
	for k := 0; k < m; k++ {
		lu.ltStart[k+1] += lu.ltStart[k]
	}
	lu.ltK = scratch.For(lu.ltK, len(lu.lrow))
	lu.ltV = scratch.For(lu.ltV, len(lu.lrow))
	copy(lu.cnt[:m], lu.ltStart[:m])
	for k2 := 0; k2 < m; k2++ {
		for i := lu.lstart[k2]; i < lu.lstart[k2+1]; i++ {
			src := lu.kOfRow[lu.lrow[i]]
			lu.ltK[lu.cnt[src]] = int32(k2)
			lu.ltV[lu.cnt[src]] = lu.lval[i]
			lu.cnt[src]++
		}
	}
}

// sortByColumnNnz fills lu.order with the basis positions sorted by
// ascending nonzero count of their columns (stable counting sort, so the
// order is deterministic). Sparsest-first processing is the Markowitz
// approximation: singleton columns become free pivots and the staircase
// coupling columns eliminate against an almost fully pivoted front.
func (lu *basisLU) sortByColumnNnz(rs *revised) {
	m := rs.m
	lu.order = scratch.For(lu.order, m)
	lu.cnt = scratch.Zeroed(lu.cnt, m+2)
	nnzOf := func(pos int) int32 {
		v := rs.basisVar[pos]
		if int(v) >= rs.n { // placeholder unit column
			return 1
		}
		return rs.colStart[v+1] - rs.colStart[v]
	}
	for pos := 0; pos < m; pos++ {
		nz := nnzOf(pos)
		if int(nz) > m {
			nz = int32(m)
		}
		lu.cnt[nz+1]++
	}
	for i := 1; i < len(lu.cnt); i++ {
		lu.cnt[i] += lu.cnt[i-1]
	}
	for pos := 0; pos < m; pos++ {
		nz := nnzOf(pos)
		if int(nz) > m {
			nz = int32(m)
		}
		lu.order[lu.cnt[nz]] = int32(pos)
		lu.cnt[nz]++
	}
}

// factorColumn eliminates one basis column: symbolic DFS for the fill
// pattern, numeric elimination over that pattern in topological order,
// then pivot selection (largest magnitude, ties to the smallest row
// index for determinism).
func (lu *basisLU) factorColumn(rs *revised, pos int) {
	v := int(rs.basisVar[pos])

	// Scatter the column and run the reachability DFS from each nonzero.
	lu.topo = lu.topo[:0]
	if v >= rs.n {
		r := int32(v - rs.n)
		lu.x[r] = 1
		lu.dfs(r)
	} else {
		for i := rs.colStart[v]; i < rs.colStart[v+1]; i++ {
			r := rs.colRow[i]
			lu.x[r] += rs.colVal[i]
			if !lu.mark[r] {
				lu.dfs(r)
			}
		}
	}

	// Numeric elimination: reverse postorder is a topological order of
	// the pivotal stages reached, so each stage sees fully updated input.
	for ti := len(lu.topo) - 1; ti >= 0; ti-- {
		r := lu.topo[ti]
		k := lu.kOfRow[r]
		if k < 0 {
			continue
		}
		t := lu.x[r]
		if t == 0 {
			continue
		}
		for i := lu.lstart[k]; i < lu.lstart[k+1]; i++ {
			lu.x[lu.lrow[i]] -= lu.lval[i] * t
		}
	}

	// Pivot selection among non-pivotal rows of the pattern.
	best := -1.0
	pr := int32(-1)
	for _, r := range lu.topo {
		if lu.kOfRow[r] >= 0 {
			continue
		}
		a := lu.x[r]
		if a < 0 {
			a = -a
		}
		if a > best || (a == best && r < pr) {
			best, pr = a, r
		}
	}

	k := int32(lu.nk)
	if best <= luPivotTol {
		// Numerically dependent column: patch the basis position with a
		// placeholder unit column on the smallest unpivoted row. The
		// placeholder is fixed at zero, so the solve continues on a
		// nearby nonsingular basis; composite phase 1 re-establishes
		// feasibility if the demoted variable was carrying value.
		for _, r := range lu.topo { // clear the failed pattern first
			lu.x[r] = 0
			lu.mark[r] = false
		}
		pr = -1
		for r := 0; r < lu.m; r++ {
			if lu.kOfRow[r] < 0 {
				pr = int32(r)
				break
			}
		}
		rs.demoteToPlaceholder(pos, pr)
		lu.deficient++
		lu.udiag[k] = 1
		lu.prow[k] = pr
		lu.pcol[k] = int32(pos)
		lu.kOfRow[pr] = k
		lu.lstart = append(lu.lstart, int32(len(lu.lrow)))
		lu.ustart = append(lu.ustart, int32(len(lu.urow)))
		lu.nk++
		return
	}

	diag := lu.x[pr]
	for _, r := range lu.topo {
		xv := lu.x[r]
		if k2 := lu.kOfRow[r]; k2 >= 0 {
			if xv != 0 {
				lu.urow = append(lu.urow, k2)
				lu.uval = append(lu.uval, xv)
			}
		} else if r != pr && xv != 0 {
			lu.lrow = append(lu.lrow, r)
			lu.lval = append(lu.lval, xv/diag)
		}
		lu.x[r] = 0
		lu.mark[r] = false
	}
	lu.udiag[k] = diag
	lu.prow[k] = pr
	lu.pcol[k] = int32(pos)
	lu.kOfRow[pr] = k
	lu.lstart = append(lu.lstart, int32(len(lu.lrow)))
	lu.ustart = append(lu.ustart, int32(len(lu.urow)))
	lu.nk++
}

// dfs marks every row reachable from r through already-built L stages
// and appends the visited rows in postorder to lu.topo.
func (lu *basisLU) dfs(r int32) {
	top := 0
	lu.stack[top] = r
	lu.si[top] = 0
	lu.mark[r] = true
	for top >= 0 {
		node := lu.stack[top]
		k := lu.kOfRow[node]
		advanced := false
		if k >= 0 {
			for i := lu.lstart[k] + lu.si[top]; i < lu.lstart[k+1]; i++ {
				child := lu.lrow[i]
				lu.si[top] = i - lu.lstart[k] + 1
				if !lu.mark[child] {
					lu.mark[child] = true
					top++
					lu.stack[top] = child
					lu.si[top] = 0
					advanced = true
					break
				}
			}
		}
		if !advanced {
			lu.topo = append(lu.topo, node)
			top--
		}
	}
}

// ftran solves B·w = a. The input a is a dense row-space vector of
// length m and is consumed as scratch; w (length m, basis-position
// space) receives the result.
func (lu *basisLU) ftran(a, w []float64) {
	for k := 0; k < lu.nk; k++ {
		t := a[lu.prow[k]]
		if t != 0 {
			for i := lu.lstart[k]; i < lu.lstart[k+1]; i++ {
				a[lu.lrow[i]] -= lu.lval[i] * t
			}
		}
	}
	for k := lu.nk - 1; k >= 0; k-- {
		y := a[lu.prow[k]] / lu.udiag[k]
		if y != 0 {
			for i := lu.ustart[k]; i < lu.ustart[k+1]; i++ {
				a[lu.prow[lu.urow[i]]] -= lu.uval[i] * y
			}
		}
		w[lu.pcol[k]] = y
	}
	for e := 0; e < lu.neta; e++ {
		r := lu.epos[e]
		t := w[r] / lu.ediag[e]
		w[r] = t
		if t != 0 {
			for i := lu.estart[e]; i < lu.estart[e+1]; i++ {
				w[lu.erow[i]] -= lu.eval[i] * t
			}
		}
	}
}

// btran solves Bᵀ·y = c. The input c is a basis-position-space vector of
// length m and is consumed as scratch; y (length m, row space) receives
// the result.
func (lu *basisLU) btran(c, y []float64) {
	for e := lu.neta - 1; e >= 0; e-- {
		r := lu.epos[e]
		s := c[r]
		for i := lu.estart[e]; i < lu.estart[e+1]; i++ {
			s -= lu.eval[i] * c[lu.erow[i]]
		}
		c[r] = s / lu.ediag[e]
	}
	for k := 0; k < lu.nk; k++ {
		s := c[lu.pcol[k]]
		for i := lu.ustart[k]; i < lu.ustart[k+1]; i++ {
			s -= lu.uval[i] * lu.tk[lu.urow[i]]
		}
		lu.tk[k] = s / lu.udiag[k]
	}
	for k := 0; k < lu.nk; k++ {
		y[lu.prow[k]] = lu.tk[k]
	}
	for k := lu.nk - 1; k >= 0; k-- {
		s := y[lu.prow[k]]
		for i := lu.lstart[k]; i < lu.lstart[k+1]; i++ {
			s -= lu.lval[i] * y[lu.lrow[i]]
		}
		y[lu.prow[k]] = s
	}
}

// hyperThreshold is the pattern size past which the sparse solves hand
// over to the dense loops. The floor keeps small bases on the sparse
// path (the overhead is negligible there and the parity tests need the
// coverage).
func (lu *basisLU) hyperThreshold() int {
	t := lu.m / hyperDenseDiv
	if t < hyperPatternFloor {
		t = hyperPatternFloor
	}
	return t
}

// dfsOn marks every node reachable from n through the CSR adjacency
// (adjStart, adjTo) and appends the visited nodes in postorder to out,
// which it returns. Reverse postorder of the result is a topological
// order. The caller owns clearing lu.mark for the appended nodes.
func (lu *basisLU) dfsOn(n int32, adjStart, adjTo []int32, out []int32) []int32 {
	top := 0
	lu.stack[top] = n
	lu.si[top] = 0
	lu.mark[n] = true
	for top >= 0 {
		node := lu.stack[top]
		advanced := false
		for i := adjStart[node] + lu.si[top]; i < adjStart[node+1]; i++ {
			child := adjTo[i]
			lu.si[top] = i - adjStart[node] + 1
			if !lu.mark[child] {
				lu.mark[child] = true
				top++
				lu.stack[top] = child
				lu.si[top] = 0
				advanced = true
				break
			}
		}
		if !advanced {
			out = append(out, node)
			top--
		}
	}
	return out
}

// ftranSparse solves B·w = a for a sparse right-hand side given as
// parallel row/value slices. w must be all-zero on entry and receives
// the solution; the returned list is the solution's pattern in
// basis-position space (it may include exact numeric zeros), appended to
// wIdx[:0]. A false second return means the pattern crossed the
// hyper-sparse density threshold and the solve finished on the dense
// loops — every entry of w is then potentially nonzero and the returned
// slice is only the retained buffer. Either way lu.x is left all-zero.
func (lu *basisLU) ftranSparse(aRow []int32, aVal []float64, w []float64, wIdx []int32) ([]int32, bool) {
	thr := lu.hyperThreshold()

	// L stage: scatter the column, reachability DFS over the L graph
	// (same traversal the factorization uses), numeric in reverse
	// postorder.
	lu.topo = lu.topo[:0]
	for i, r := range aRow {
		lu.x[r] += aVal[i]
		if !lu.mark[r] {
			lu.dfs(r)
		}
	}
	if len(lu.topo) > thr {
		for _, r := range lu.topo {
			lu.mark[r] = false
		}
		lu.ftranDenseL()
		lu.ftranDenseU(w)
		lu.ftranDenseEta(w)
		return wIdx[:0], false
	}
	for ti := len(lu.topo) - 1; ti >= 0; ti-- {
		r := lu.topo[ti]
		lu.mark[r] = false
		k := lu.kOfRow[r]
		t := lu.x[r]
		if t == 0 {
			continue
		}
		for i := lu.lstart[k]; i < lu.lstart[k+1]; i++ {
			lu.x[lu.lrow[i]] -= lu.lval[i] * t
		}
	}

	// U stage: reachability in elimination-step space (column k's
	// off-diagonal entries name the earlier steps it updates), numeric in
	// reverse postorder consuming lu.x into w.
	lu.topo2 = lu.topo2[:0]
	for _, r := range lu.topo {
		k := lu.kOfRow[r]
		if !lu.mark[k] {
			lu.topo2 = lu.dfsOn(k, lu.ustart, lu.urow, lu.topo2)
		}
	}
	if len(lu.topo2) > thr {
		for _, k := range lu.topo2 {
			lu.mark[k] = false
		}
		lu.ftranDenseU(w)
		lu.ftranDenseEta(w)
		return wIdx[:0], false
	}
	wIdx = wIdx[:0]
	for ti := len(lu.topo2) - 1; ti >= 0; ti-- {
		k := lu.topo2[ti]
		lu.mark[k] = false
		y := lu.x[lu.prow[k]] / lu.udiag[k]
		lu.x[lu.prow[k]] = 0
		if y != 0 {
			for i := lu.ustart[k]; i < lu.ustart[k+1]; i++ {
				lu.x[lu.prow[lu.urow[i]]] -= lu.uval[i] * y
			}
		}
		w[lu.pcol[k]] = y
		wIdx = append(wIdx, lu.pcol[k])
	}

	// Eta stage: forward scan with value skips; the pattern can only grow
	// along eta columns whose pivot position is already nonzero.
	for _, p := range wIdx {
		lu.mark[p] = true
	}
	for e := 0; e < lu.neta; e++ {
		r := lu.epos[e]
		t := w[r]
		if t == 0 {
			continue
		}
		t /= lu.ediag[e]
		w[r] = t
		for i := lu.estart[e]; i < lu.estart[e+1]; i++ {
			rr := lu.erow[i]
			w[rr] -= lu.eval[i] * t
			if !lu.mark[rr] {
				lu.mark[rr] = true
				wIdx = append(wIdx, rr)
			}
		}
	}
	for _, p := range wIdx {
		lu.mark[p] = false
	}
	return wIdx, true
}

// ftranDenseL runs the dense L stage of ftran over lu.x in place.
func (lu *basisLU) ftranDenseL() {
	for k := 0; k < lu.nk; k++ {
		t := lu.x[lu.prow[k]]
		if t != 0 {
			for i := lu.lstart[k]; i < lu.lstart[k+1]; i++ {
				lu.x[lu.lrow[i]] -= lu.lval[i] * t
			}
		}
	}
}

// ftranDenseU runs the dense U stage, consuming lu.x (restoring its
// all-zero invariant) into w.
func (lu *basisLU) ftranDenseU(w []float64) {
	for k := lu.nk - 1; k >= 0; k-- {
		y := lu.x[lu.prow[k]] / lu.udiag[k]
		lu.x[lu.prow[k]] = 0
		if y != 0 {
			for i := lu.ustart[k]; i < lu.ustart[k+1]; i++ {
				lu.x[lu.prow[lu.urow[i]]] -= lu.uval[i] * y
			}
		}
		w[lu.pcol[k]] = y
	}
}

// ftranDenseEta applies the eta file to w in place (dense forward scan).
func (lu *basisLU) ftranDenseEta(w []float64) {
	for e := 0; e < lu.neta; e++ {
		r := lu.epos[e]
		t := w[r] / lu.ediag[e]
		w[r] = t
		if t != 0 {
			for i := lu.estart[e]; i < lu.estart[e+1]; i++ {
				w[lu.erow[i]] -= lu.eval[i] * t
			}
		}
	}
}

// btranUnit solves Bᵀ·y = e_pos for a unit right-hand side on basis
// position pos — the pivot-row solve feeding the PRICE update. y must be
// all-zero on entry and receives the solution in row space; the returned
// list is its pattern appended to yIdx[:0] (possibly including exact
// zeros). A false second return means the solve crossed the density
// threshold and finished densely, leaving y potentially dense. The
// summation order differs from the dense btran (push model vs pull
// model), so results may differ in the last ulp; both orders are
// deterministic.
func (lu *basisLU) btranUnit(pos int32, y []float64, yIdx []int32) ([]int32, bool) {
	thr := lu.hyperThreshold()

	// Eta stage, backward over the file. Position space; pattern collects
	// in lu.topo. An eta participates only when its pivot position is
	// already in the pattern or its support intersects it — the
	// per-position entry chains flag intersecting etas as the pattern
	// grows, so untouched etas cost one flag test instead of a dot
	// product over their fill.
	lu.topo = lu.topo[:0]
	lu.cs[pos] = 1
	lu.mark[pos] = true
	lu.topo = append(lu.topo, pos)
	if lu.neta > 0 {
		lu.ecand = scratch.Zeroed(lu.ecand, lu.neta)
		for i := lu.eHead[pos]; i >= 0; i = lu.eNext[i] {
			lu.ecand[lu.eOf[i]] = true
		}
		for e := lu.neta - 1; e >= 0; e-- {
			r := lu.epos[e]
			if !lu.ecand[e] && !lu.mark[r] {
				continue
			}
			s := lu.cs[r]
			for i := lu.estart[e]; i < lu.estart[e+1]; i++ {
				s -= lu.eval[i] * lu.cs[lu.erow[i]]
			}
			if s == 0 && !lu.mark[r] {
				continue
			}
			lu.cs[r] = s / lu.ediag[e]
			if !lu.mark[r] {
				lu.mark[r] = true
				lu.topo = append(lu.topo, r)
				for i := lu.eHead[r]; i >= 0; i = lu.eNext[i] {
					lu.ecand[lu.eOf[i]] = true
				}
			}
		}
	}
	if len(lu.topo) > thr {
		for _, p := range lu.topo {
			lu.mark[p] = false
		}
		lu.btranDenseFromCs(y)
		return yIdx[:0], false
	}

	// Uᵀ stage: move the position-space pattern into step space and run
	// the reachability DFS over the transposed U adjacency; numeric is a
	// push in topological order (finalize, then push to later steps).
	for _, p := range lu.topo {
		lu.mark[p] = false
	}
	lu.topo2 = lu.topo2[:0]
	for _, p := range lu.topo {
		k := lu.kOfPos[p]
		lu.tks[k] = lu.cs[p]
		lu.cs[p] = 0
		if !lu.mark[k] {
			lu.topo2 = lu.dfsOn(k, lu.utStart, lu.utK, lu.topo2)
		}
	}
	if len(lu.topo2) > thr {
		for _, k := range lu.topo2 {
			lu.mark[k] = false
		}
		lu.btranDenseUTLT(y)
		return yIdx[:0], false
	}
	for ti := len(lu.topo2) - 1; ti >= 0; ti-- {
		k := lu.topo2[ti]
		v := lu.tks[k] / lu.udiag[k]
		lu.tks[k] = v
		if v != 0 {
			for i := lu.utStart[k]; i < lu.utStart[k+1]; i++ {
				lu.tks[lu.utK[i]] -= lu.utV[i] * v
			}
		}
	}

	// Lᵀ stage: same step space, different adjacency — clear the Uᵀ marks
	// and re-run reachability over the transposed L edges, then push in
	// topological order, consuming lu.tks into y.
	for _, k := range lu.topo2 {
		lu.mark[k] = false
	}
	lu.topo = lu.topo[:0]
	for _, k := range lu.topo2 {
		if !lu.mark[k] {
			lu.topo = lu.dfsOn(k, lu.ltStart, lu.ltK, lu.topo)
		}
	}
	if len(lu.topo) > thr {
		for _, k := range lu.topo {
			lu.mark[k] = false
		}
		for k := 0; k < lu.nk; k++ {
			y[lu.prow[k]] = lu.tks[k]
			lu.tks[k] = 0
		}
		lu.btranDenseLT(y)
		return yIdx[:0], false
	}
	yIdx = yIdx[:0]
	for ti := len(lu.topo) - 1; ti >= 0; ti-- {
		k := lu.topo[ti]
		lu.mark[k] = false
		v := lu.tks[k]
		lu.tks[k] = 0
		r := lu.prow[k]
		y[r] = v
		yIdx = append(yIdx, r)
		if v != 0 {
			for i := lu.ltStart[k]; i < lu.ltStart[k+1]; i++ {
				lu.tks[lu.ltK[i]] -= lu.ltV[i] * v
			}
		}
	}
	return yIdx, true
}

// btranDenseFromCs finishes a btranUnit densely from the eta stage:
// consumes lu.cs (restoring its zero invariant) through the dense
// Uᵀ pull loop and the dense Lᵀ loop into y.
func (lu *basisLU) btranDenseFromCs(y []float64) {
	for k := 0; k < lu.nk; k++ {
		p := lu.pcol[k]
		s := lu.cs[p]
		lu.cs[p] = 0
		for i := lu.ustart[k]; i < lu.ustart[k+1]; i++ {
			s -= lu.uval[i] * lu.tk[lu.urow[i]]
		}
		lu.tk[k] = s / lu.udiag[k]
	}
	for k := 0; k < lu.nk; k++ {
		y[lu.prow[k]] = lu.tk[k]
	}
	lu.btranDenseLT(y)
}

// btranDenseUTLT finishes a btranUnit densely from the Uᵀ stage: lu.tks
// holds the sparse-seeded step-space right-hand side (all other entries
// zero); the dense push loop finalizes every step, then the Lᵀ loop runs
// on y. lu.tks is consumed back to all-zero.
func (lu *basisLU) btranDenseUTLT(y []float64) {
	for k := 0; k < lu.nk; k++ {
		v := lu.tks[k] / lu.udiag[k]
		lu.tks[k] = v
		if v != 0 {
			for i := lu.utStart[k]; i < lu.utStart[k+1]; i++ {
				lu.tks[lu.utK[i]] -= lu.utV[i] * v
			}
		}
	}
	for k := 0; k < lu.nk; k++ {
		y[lu.prow[k]] = lu.tks[k]
		lu.tks[k] = 0
	}
	lu.btranDenseLT(y)
}

// btranDenseLT runs the dense Lᵀ stage of btran over y in place.
func (lu *basisLU) btranDenseLT(y []float64) {
	for k := lu.nk - 1; k >= 0; k-- {
		s := y[lu.prow[k]]
		for i := lu.lstart[k]; i < lu.lstart[k+1]; i++ {
			s -= lu.lval[i] * y[lu.lrow[i]]
		}
		y[lu.prow[k]] = s
	}
}

// addEta appends the product-form update for a pivot that replaced basis
// position r with a column whose ftran image is w.
func (lu *basisLU) addEta(w []float64, r int) {
	for i, wi := range w {
		if i != r && wi != 0 {
			lu.eNext = append(lu.eNext, lu.eHead[i])
			lu.eOf = append(lu.eOf, int32(lu.neta))
			lu.eHead[i] = int32(len(lu.erow))
			lu.erow = append(lu.erow, int32(i))
			lu.eval = append(lu.eval, wi)
		}
	}
	lu.estart = append(lu.estart, int32(len(lu.erow)))
	lu.epos = append(lu.epos, int32(r))
	lu.ediag = append(lu.ediag, w[r])
	lu.neta++
}

// addEtaSparse is addEta over an explicit pattern: only the positions in
// wIdx are inspected. Entry order follows the pattern order (a valid
// order for the product form; it differs from addEta's ascending order,
// which only perturbs round-off, deterministically). A nil wIdx defers
// to the dense addEta.
func (lu *basisLU) addEtaSparse(w []float64, wIdx []int32, r int) {
	if wIdx == nil {
		lu.addEta(w, r)
		return
	}
	for _, i := range wIdx {
		if int(i) != r && w[i] != 0 {
			lu.eNext = append(lu.eNext, lu.eHead[i])
			lu.eOf = append(lu.eOf, int32(lu.neta))
			lu.eHead[i] = int32(len(lu.erow))
			lu.erow = append(lu.erow, i)
			lu.eval = append(lu.eval, w[i])
		}
	}
	lu.estart = append(lu.estart, int32(len(lu.erow)))
	lu.epos = append(lu.epos, int32(r))
	lu.ediag = append(lu.ediag, w[r])
	lu.neta++
}

// needsRefactor reports whether the eta file has grown past the cadence
// limits (see maxEtas/etaFillFactor/minEtaFill). The fill bound is
// clamped from below: for tiny bases etaFillFactor·m is a handful of
// entries and the unclamped bound refactorized nearly every pivot.
func (lu *basisLU) needsRefactor() bool {
	fillLimit := etaFillFactor * lu.m
	if fillLimit < minEtaFill {
		fillLimit = minEtaFill
	}
	return lu.neta >= maxEtas || len(lu.eval) > fillLimit
}
