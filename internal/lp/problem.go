package lp

import (
	"errors"
	"fmt"
	"math"
)

// Relation is the sense of a linear constraint.
type Relation int

// Constraint relations.
const (
	LE Relation = iota + 1 // aᵀx ≤ b
	GE                     // aᵀx ≥ b
	EQ                     // aᵀx = b
)

// String returns the mathematical symbol for the relation.
func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Relation(%d)", int(r))
	}
}

// VarID identifies a variable within a Problem.
type VarID int

// Term is a single coefficient–variable product in a constraint row.
type Term struct {
	Var   VarID
	Coeff float64
}

// variable is the internal record of one decision variable.
type variable struct {
	name  string
	lower float64
	upper float64
	cost  float64
}

// constraint is the internal record of one constraint row.
type constraint struct {
	terms []Term
	rel   Relation
	rhs   float64
}

// Problem is a mutable linear program under construction. The zero value is
// not usable; create instances with NewProblem.
type Problem struct {
	vars []variable
	cons []constraint
}

// NewProblem returns an empty minimization problem.
func NewProblem() *Problem {
	return &Problem{}
}

// Reset empties the problem for rebuilding in place, keeping the variable
// and constraint storage (including each retired row's term buffer) so a
// problem rebuilt to a similar shape allocates nothing.
func (p *Problem) Reset() {
	p.vars = p.vars[:0]
	p.cons = p.cons[:0]
}

// AddVariable adds a decision variable with bounds [lower, upper] and the
// given objective coefficient, returning its identifier. lower may be
// math.Inf(-1) and upper may be math.Inf(1). Both bounds are column
// bounds of the bounded-variable simplex, never extra constraint rows.
// The name appears only in error messages; an empty name prints as x<id>.
func (p *Problem) AddVariable(name string, lower, upper, cost float64) VarID {
	p.vars = append(p.vars, variable{name: name, lower: lower, upper: upper, cost: cost})
	return VarID(len(p.vars) - 1)
}

// AddConstraint adds the row  Σ terms  rel  rhs.
// Terms referencing the same variable are summed. The terms slice is
// copied into problem-owned storage (reused across Reset cycles), so
// callers may reuse their build buffer.
func (p *Problem) AddConstraint(rel Relation, rhs float64, terms ...Term) {
	if len(p.cons) < cap(p.cons) {
		// Revive the retired row and reuse its term buffer.
		p.cons = p.cons[:len(p.cons)+1]
		c := &p.cons[len(p.cons)-1]
		c.terms = append(c.terms[:0], terms...)
		c.rel, c.rhs = rel, rhs
		return
	}
	own := make([]Term, len(terms))
	copy(own, terms)
	p.cons = append(p.cons, constraint{terms: own, rel: rel, rhs: rhs})
}

// NumVariables reports the number of variables added so far.
func (p *Problem) NumVariables() int { return len(p.vars) }

// NumConstraints reports the number of constraint rows added so far.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// Errors returned by Solve and Minimize: the first four for structurally
// invalid problems, the last two on numerical trouble.
var (
	ErrNoVariables = errors.New("lp: problem has no variables")
	ErrBadBounds   = errors.New("lp: variable lower bound exceeds upper bound")
	ErrBadTerm     = errors.New("lp: constraint references unknown variable")
	ErrNotFinite   = errors.New("lp: non-finite coefficient or right-hand side")
	ErrIterLimit   = errors.New("lp: simplex iteration limit exceeded")
	ErrNumerical   = errors.New("lp: numerical trouble, no verified solution")
)

// validate checks the problem for structural errors before solving.
func (p *Problem) validate() error {
	if len(p.vars) == 0 {
		return ErrNoVariables
	}
	for i, v := range p.vars {
		if v.lower > v.upper {
			return fmt.Errorf("%w: %s has [%g, %g]", ErrBadBounds, p.varName(VarID(i)), v.lower, v.upper)
		}
		if math.IsNaN(v.lower) || math.IsNaN(v.upper) || !isFinite(v.cost) {
			return fmt.Errorf("%w: variable %s", ErrNotFinite, p.varName(VarID(i)))
		}
	}
	for i, c := range p.cons {
		if !isFinite(c.rhs) {
			return fmt.Errorf("%w: constraint %d rhs", ErrNotFinite, i)
		}
		for _, t := range c.terms {
			if int(t.Var) < 0 || int(t.Var) >= len(p.vars) {
				return fmt.Errorf("%w: constraint %d references %d", ErrBadTerm, i, t.Var)
			}
			if !isFinite(t.Coeff) {
				return fmt.Errorf("%w: constraint %d coefficient", ErrNotFinite, i)
			}
		}
	}
	return nil
}

// feasible reports whether x, indexed by VarID, satisfies every bound and
// row of p within feasTol, the simplex's own feasibility tolerance,
// scaled by the magnitudes involved: for a bound 1 + |x| plus the
// variable's finite bound magnitudes, for a row 1 + |rhs| + Σ|aⱼxⱼ|. A
// NaN fails every test. It allocates nothing; Solve runs it on every
// Optimal answer.
func (p *Problem) feasible(x []float64) bool {
	for i, v := range p.vars {
		tol := feasTol * (1 + math.Abs(x[i]) + finiteAbs(v.lower) + finiteAbs(v.upper))
		if !(x[i] >= v.lower-tol && x[i] <= v.upper+tol) {
			return false
		}
	}
	for _, c := range p.cons {
		lhs, scale := 0.0, 1+math.Abs(c.rhs)
		for _, t := range c.terms {
			a := t.Coeff * x[t.Var]
			lhs += a
			scale += math.Abs(a)
		}
		r, tol := lhs-c.rhs, feasTol*scale
		var ok bool
		switch c.rel {
		case LE:
			ok = r <= tol
		case GE:
			ok = r >= -tol
		default:
			ok = math.Abs(r) <= tol
		}
		if !ok {
			return false
		}
	}
	return true
}

// finiteAbs is |x| for finite x and 0 for an infinite bound.
func finiteAbs(x float64) float64 {
	if math.IsInf(x, 0) {
		return 0
	}
	return math.Abs(x)
}

func (p *Problem) varName(id VarID) string {
	v := p.vars[id]
	if v.name == "" {
		return fmt.Sprintf("x%d", int(id))
	}
	return v.name
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
