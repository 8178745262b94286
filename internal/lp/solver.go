package lp

// Solver owns every working buffer of the sparse revised simplex — the
// standard-form rewrite, the LU factors and pricing state, and the
// solution vector — and reuses them across solves. Long sequences of
// similar problems (the per-slot P5 instances, the per-interval and
// receding-horizon baseline LPs) solve allocation-free once the buffers
// have grown to the largest shape seen. Every solve runs cold: no pivot
// state carries from one solve to the next. The one thing kept is the
// cold start itself — the crash basis and first factorization of a
// matrix that repeats bit for bit (coldStart), which that matrix's next
// crash and factorize would compute again — so a reused Solver
// reproduces a fresh one's pivot sequence bit for bit.
//
// A Solver is not safe for concurrent use. The Solution returned by Solve
// borrows the solver's buffers and is valid only until the next solve;
// use Solution.Values (a copy) to retain results.
type Solver struct {
	sf  standardForm
	rev revised

	start    coldStart // the saved cold start of a repeating matrix
	lastKey  uint64    // the previous solve's matrix fingerprint
	restored int       // solves that started from start; observability for tests

	y    []float64 // standard-form solution scratch
	vals []float64 // recovered variable values (borrowed by Solution)
}

// NewSolver returns an empty solver; buffers grow on first use.
func NewSolver() *Solver { return &Solver{} }

// Solve runs the sparse revised simplex with buffer reuse. Before an
// Optimal answer leaves, its values are checked against every bound and
// row of p (Problem.feasible). On numerical trouble Solve returns an
// error instead of a status: ErrIterLimit when the pivot or stall budget
// runs out, ErrNumerical for anything else, including an optimum that
// fails the check. It never returns an unverified Optimal.
func (s *Solver) Solve(p *Problem) (Solution, error) {
	if err := p.validate(); err != nil {
		return Solution{}, err
	}
	p.buildStandardForm(&s.sf)
	sol, err := s.simplex()
	if err != nil {
		return Solution{}, err
	}
	if sol.Status == Optimal && !p.feasible(sol.values) {
		return Solution{}, ErrNumerical
	}
	return sol, nil
}

// Minimize solves the problem with a throwaway solver, returning a
// Solution whose Status reports optimality, infeasibility or
// unboundedness. An error is returned for structurally invalid problems
// and on numerical trouble (see Solver.Solve). Callers solving many
// problems should keep a Solver instead.
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
