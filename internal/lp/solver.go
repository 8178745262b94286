package lp

import "github.com/smartdpss/smartdpss/internal/scratch"

// Solver owns every working buffer of the simplex — the standard-form
// rewrite, the dense tableau arena, and the solution vector — and reuses
// them across solves. Long sequences of similar problems (the per-slot P5
// instances, the per-interval and receding-horizon baseline LPs) solve
// allocation-free once the buffers have grown to the largest shape seen.
// Every solve runs cold: no basis or pivot state carries from one solve
// to the next, so a reused Solver reproduces a fresh one's pivot sequence.
//
// A Solver is not safe for concurrent use. The Solution returned by Solve
// borrows the solver's buffers and is valid only until the next solve;
// use Solution.Values (a copy) to retain results.
type Solver struct {
	sf  standardForm
	t   tableau
	rev revised

	y    []float64 // standard-form solution scratch
	vals []float64 // recovered variable values (borrowed by Solution)
}

// NewSolver returns an empty solver; buffers grow on first use.
func NewSolver() *Solver { return &Solver{} }

// Solve runs the exact two-phase simplex with buffer reuse. The pivot
// sequence is identical to Problem.Minimize, so results are bit-for-bit
// the same; only the allocation behavior differs.
func (s *Solver) Solve(p *Problem) (Solution, error) {
	if err := p.validate(); err != nil {
		return Solution{}, err
	}
	p.buildStandardForm(&s.sf)
	sf := &s.sf
	if p.sparse {
		if sol, ok := s.runSparse(); ok {
			return sol, nil
		}
		// Numerical trouble on the sparse path: rebuild the rows dense
		// and fall through to the exact tableau solver, which owns the
		// final word on every problem.
		p.buildStandardFormDense(sf)
	}
	t := &s.t
	t.init(sf)

	maxIter := 200 + 60*(t.m+t.n)

	// Phase 1: minimize the sum of artificial variables.
	t.inPhase1 = true
	status, err := t.iterate(maxIter)
	if err != nil {
		return Solution{}, err
	}
	if status == Unbounded {
		// Phase-1 objective is bounded below by 0; unbounded here means a bug.
		return Solution{}, errNumericalBug
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

	s.y = scratch.Zeroed(s.y, sf.ncols)
	if t.hasUB {
		// Nonbasic flipped columns sit at their upper bound; basic flipped
		// columns hold the complement, undone below.
		for j := 0; j < sf.ncols; j++ {
			if t.flip[j] {
				s.y[j] = t.ub[j]
			}
		}
	}
	for i := 0; i < t.m; i++ {
		if col := t.basis[i]; col < sf.ncols {
			if t.hasUB && t.flip[col] {
				s.y[col] = t.ub[col] - t.rhs[i]
			} else {
				s.y[col] = t.rhs[i]
			}
		}
	}
	s.vals = scratch.Zeroed(s.vals, len(sf.recover))
	sf.recoverValuesInto(s.y, s.vals)
	return Solution{
		Status:     Optimal,
		Objective:  t.objVal + sf.offset,
		Iterations: t.pivots,
		values:     s.vals,
	}, nil
}

// Minimize solves the problem with a throwaway solver, returning a
// Solution whose Status reports optimality, infeasibility or
// unboundedness. An error is returned only for structurally invalid
// problems or when the iteration budget is exhausted. Callers solving
// many problems should keep a Solver instead.
func (p *Problem) Minimize() (*Solution, error) {
	var s Solver
	sol, err := s.Solve(p)
	if err != nil {
		return nil, err
	}
	// Detach the values from the throwaway solver's buffer.
	out := sol
	if sol.values != nil {
		out.values = append([]float64(nil), sol.values...)
	}
	return &out, nil
}
