package lp

import (
	"math"

	"github.com/smartdpss/smartdpss/internal/scratch"
)

// Variable-recovery kinds used when mapping standard-form values back to the
// caller's variables.
const (
	recShifted = iota + 1 // x = base + y[col]
	recFlipped            // x = base − y[col]
	recSplit              // x = y[col] − y[col2]
	recFixed              // x = base
)

// varRecover describes how to reconstruct one original variable from the
// standard-form solution vector.
type varRecover struct {
	kind int
	col  int
	col2 int
	base float64
}

// sfRow is one constraint row's relation and right-hand side over
// standard-form columns; its coefficients live in the standardForm's
// compressed row storage.
type sfRow struct {
	rel Relation
	rhs float64
}

// colSub is the per-variable substitution used while building rows.
type colSub struct {
	col, col2 int     // standard columns (col2 only for split)
	scale     float64 // contribution of y[col] to x
	base      float64 // constant part of x
}

// standardForm is the problem rewritten over non-negative variables. All
// slices are owned by the struct and reused across builds (a Solver keeps
// one standardForm alive across solves), so building allocates only when a
// problem outgrows every previous one.
type standardForm struct {
	ncols   int
	rows    []sfRow
	costs   []float64
	upper   []float64 // per-column upper bound; +Inf when none
	offset  float64   // constant added to the objective by substitutions
	recover []varRecover

	// Compressed row storage: row i's entries are
	// rcol/rval[rowStart[i]:rowStart[i+1]], so a build stays linear in
	// the nonzero count rather than rows×cols.
	rowStart []int32
	rcol     []int32
	rval     []float64

	// build scratch, reused across calls
	subs  []colSub
	stamp []int32 // dedup: last row (1-based) that touched a column
	spos  []int32 // dedup: entry index of that touch
}

// buildStandardForm rewrites the problem over non-negative variables into
// sf, translating finite bounds into shifts, sign flips and splits. A
// finite upper bound on a shifted variable is recorded in sf.upper as a
// column bound for the bounded-variable pivot loop; it never becomes a
// row, so sf.rows holds exactly the caller's constraints.
func (p *Problem) buildStandardForm(sf *standardForm) {
	nv := len(p.vars)
	if cap(sf.recover) < nv {
		sf.recover = make([]varRecover, nv)
	}
	sf.recover = sf.recover[:nv]
	if cap(sf.subs) < nv {
		sf.subs = make([]colSub, nv)
	}
	sf.subs = sf.subs[:nv]
	sf.ncols = 0
	sf.offset = 0

	// Column assignment and per-variable substitution.
	for i, v := range p.vars {
		switch {
		case v.lower == v.upper:
			sf.recover[i] = varRecover{kind: recFixed, base: v.lower}
			sf.subs[i] = colSub{col: -1, base: v.lower}
		case !math.IsInf(v.lower, -1):
			col := sf.ncols
			sf.ncols++
			sf.recover[i] = varRecover{kind: recShifted, col: col, base: v.lower}
			sf.subs[i] = colSub{col: col, scale: 1, base: v.lower}
		case !math.IsInf(v.upper, 1):
			// lower = -Inf, upper finite: x = upper − y.
			col := sf.ncols
			sf.ncols++
			sf.recover[i] = varRecover{kind: recFlipped, col: col, base: v.upper}
			sf.subs[i] = colSub{col: col, scale: -1, base: v.upper}
		default:
			// Free variable: x = y⁺ − y⁻.
			col := sf.ncols
			col2 := sf.ncols + 1
			sf.ncols += 2
			sf.recover[i] = varRecover{kind: recSplit, col: col, col2: col2}
			sf.subs[i] = colSub{col: col, col2: col2, scale: 1}
		}
	}

	// Column bounds: finite only on shifted variables with a finite upper
	// bound.
	sf.upper = scratch.For(sf.upper, sf.ncols)
	for j := range sf.upper {
		sf.upper[j] = math.Inf(1)
	}
	for i, v := range p.vars {
		if r := sf.recover[i]; r.kind == recShifted && !math.IsInf(v.upper, 1) {
			sf.upper[r.col] = v.upper - v.lower
		}
	}

	// Objective.
	sf.costs = scratch.Zeroed(sf.costs, sf.ncols)
	for i, v := range p.vars {
		s := sf.subs[i]
		sf.offset += v.cost * s.base
		if s.col >= 0 && s.scale != 0 {
			sf.costs[s.col] += v.cost * s.scale
			if sf.recover[i].kind == recSplit {
				sf.costs[s.col2] -= v.cost
			}
		}
	}

	nrows := len(p.cons)
	if cap(sf.rows) < nrows {
		sf.rows = make([]sfRow, nrows)
	}
	sf.rows = sf.rows[:nrows]
	p.buildRows(sf)
}

// buildRows fills the compressed row storage. Entry order within a row
// is first-occurrence order of the columns; duplicate terms are summed
// in place via the stamp/spos dedup scratch (a term pair that cancels
// exactly leaves an explicit zero, which the revised simplex treats like
// any other value). Relations and right-hand sides live in sf.rows.
func (p *Problem) buildRows(sf *standardForm) {
	nrows := len(sf.rows)
	sf.rowStart = scratch.For(sf.rowStart, nrows+1)
	sf.rcol = sf.rcol[:0]
	sf.rval = sf.rval[:0]
	sf.stamp = scratch.Zeroed(sf.stamp, sf.ncols)
	sf.spos = scratch.For(sf.spos, sf.ncols)

	ri := int32(1) // 1-based row stamp; 0 means "never touched"
	add := func(col int, v float64) {
		if sf.stamp[col] == ri {
			sf.rval[sf.spos[col]] += v
			return
		}
		sf.stamp[col] = ri
		sf.spos[col] = int32(len(sf.rval))
		sf.rcol = append(sf.rcol, int32(col))
		sf.rval = append(sf.rval, v)
	}

	for ci, c := range p.cons {
		sf.rowStart[ci] = int32(len(sf.rcol))
		rhs := c.rhs
		for _, t := range c.terms {
			s := sf.subs[t.Var]
			rhs -= t.Coeff * s.base
			if s.col < 0 {
				continue
			}
			add(s.col, t.Coeff*s.scale)
			if sf.recover[t.Var].kind == recSplit {
				add(s.col2, -t.Coeff)
			}
		}
		sf.rows[ci] = sfRow{rel: c.rel, rhs: rhs}
		ri++
	}
	sf.rowStart[nrows] = int32(len(sf.rcol))
}

// recoverValuesInto maps a standard-form solution vector back to original
// variable values, writing into out (which must have len(sf.recover)).
func (sf *standardForm) recoverValuesInto(y, out []float64) {
	for i, r := range sf.recover {
		switch r.kind {
		case recFixed:
			out[i] = r.base
		case recShifted:
			out[i] = r.base + y[r.col]
		case recFlipped:
			out[i] = r.base - y[r.col]
		case recSplit:
			out[i] = y[r.col] - y[r.col2]
		}
	}
}
