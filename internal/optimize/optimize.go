// Package optimize implements the deterministic, seeded derivative-free
// optimizer behind the self-tuning controller: a Nelder–Mead downhill
// simplex with box-bound projection and seeded restarts, in the style of
// the kapacitor neldermead package.
//
// The optimizer is pure sequential control logic over a pluggable
// Objective — any parallelism (the controller tuner fans its multi-seed
// simulations out on the suite worker pool) lives inside the objective,
// so a minimization at -parallel 8 walks the exact simplex trajectory of
// the -parallel 1 run: results depend only on the Options, never on the
// execution schedule.
//
// Determinism contract: Minimize with equal (objective values, Bounds,
// Options) produces bit-identical Results — every candidate is generated
// in a fixed order from a rand.Rand seeded by Options.Seed alone, ties
// break by vertex index, and no map iteration or wall clock enters the
// control flow.
package optimize

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/smartdpss/smartdpss/internal/rng"
)

// Objective evaluates one candidate point and returns the scalar cost to
// minimize. The optimizer treats it as a black box; an error aborts the
// minimization and is returned verbatim.
type Objective func(x []float64) (float64, error)

// Bounds is the box constraint: every candidate is projected into
// [Lo[i], Hi[i]] before evaluation, so the objective never sees an
// out-of-range point.
type Bounds struct {
	Lo []float64
	Hi []float64
}

// Dim returns the search-space dimension.
func (b Bounds) Dim() int { return len(b.Lo) }

// Validate reports malformed boxes: mismatched lengths, non-finite or
// inverted edges, and the empty box.
func (b Bounds) Validate() error {
	if len(b.Lo) == 0 {
		return errors.New("optimize: empty bounds")
	}
	if len(b.Lo) != len(b.Hi) {
		return fmt.Errorf("optimize: bounds length mismatch: %d lo vs %d hi", len(b.Lo), len(b.Hi))
	}
	for i := range b.Lo {
		if math.IsNaN(b.Lo[i]) || math.IsInf(b.Lo[i], 0) || math.IsNaN(b.Hi[i]) || math.IsInf(b.Hi[i], 0) {
			return fmt.Errorf("optimize: non-finite bound in dimension %d", i)
		}
		if b.Lo[i] > b.Hi[i] {
			return fmt.Errorf("optimize: inverted bounds in dimension %d: [%g, %g]", i, b.Lo[i], b.Hi[i])
		}
	}
	return nil
}

// Clamp projects x into the box in place.
func (b Bounds) Clamp(x []float64) {
	for i := range x {
		x[i] = math.Min(b.Hi[i], math.Max(b.Lo[i], x[i]))
	}
}

// Options tunes the minimization. The zero value selects the documented
// defaults; only Seed has no default (zero is a valid seed).
type Options struct {
	// Seed drives the restart jitter and any randomized placement. Equal
	// seeds walk equal trajectories.
	Seed int64
	// MaxEvals bounds objective evaluations (default 200 per dimension).
	MaxEvals int
	// Tol is the convergence tolerance: the minimization restarts (or
	// stops, once Restarts is exhausted) when the simplex collapses below
	// Tol in both coordinate spread and objective spread (default 1e-6).
	Tol float64
	// Restarts is the number of seeded re-inflations around the incumbent
	// after a collapse — the standard escape from degenerate simplexes on
	// noisy or flat objectives (default 2).
	Restarts int
	// InitStep is the initial simplex edge length as a fraction of each
	// dimension's box width (default 0.15).
	InitStep float64
	// Quantize, when non-nil, snaps a candidate onto its feasible lattice
	// after the box projection and before evaluation — integer-valued
	// controller parameters (T, CommitWindow) round here, the way the
	// kapacitor exemplar rounds through its constraint callback. It must
	// be deterministic and keep the point inside the bounds.
	Quantize func(x []float64)
}

// withDefaults resolves the documented defaults against the dimension.
func (o Options) withDefaults(dim int) Options {
	if o.MaxEvals <= 0 {
		o.MaxEvals = 200 * dim
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	if o.Restarts < 0 {
		o.Restarts = 0
	} else if o.Restarts == 0 {
		o.Restarts = 2
	}
	if o.InitStep <= 0 || o.InitStep > 1 {
		o.InitStep = 0.15
	}
	return o
}

// Step is one trajectory entry: the incumbent after an improving
// iteration.
type Step struct {
	// Eval is the number of objective evaluations spent when the
	// incumbent was accepted.
	Eval int
	// F is the incumbent objective value.
	F float64
	// X is the incumbent point (a private copy).
	X []float64
}

// Result is a finished minimization.
type Result struct {
	// X is the best point found, inside the bounds.
	X []float64
	// F is the objective at X.
	F float64
	// Evals counts objective evaluations.
	Evals int
	// Restarts counts simplex re-inflations actually taken.
	Restarts int
	// Trajectory records every improvement of the incumbent in
	// acceptance order; two runs agree iff their trajectories agree.
	Trajectory []Step
}

// vertex is one simplex corner.
type vertex struct {
	x []float64
	f float64
}

// Minimize runs the bounded Nelder–Mead search from start (clamped into
// the box; nil starts from the box center).
func Minimize(obj Objective, start []float64, b Bounds, opts Options) (*Result, error) {
	if obj == nil {
		return nil, errors.New("optimize: nil objective")
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	dim := b.Dim()
	if start != nil && len(start) != dim {
		return nil, fmt.Errorf("optimize: start has %d dimensions, bounds have %d", len(start), dim)
	}
	opts = opts.withDefaults(dim)
	r := rand.New(rng.NewSource(opts.Seed))

	x0 := make([]float64, dim)
	if start == nil {
		for i := range x0 {
			x0[i] = b.Lo[i] + 0.5*(b.Hi[i]-b.Lo[i])
		}
	} else {
		copy(x0, start)
	}
	b.Clamp(x0)

	m := &minimizer{obj: obj, bounds: b, opts: opts, rng: r, res: &Result{}}
	best, err := m.run(x0)
	if err != nil {
		return nil, err
	}
	m.res.X = best.x
	m.res.F = best.f
	return m.res, nil
}

type minimizer struct {
	obj    Objective
	bounds Bounds
	opts   Options
	rng    *rand.Rand
	res    *Result
	best   vertex
}

// eval projects, quantizes and evaluates one candidate, tracking the
// incumbent and the trajectory.
func (m *minimizer) eval(x []float64) (vertex, error) {
	p := make([]float64, len(x))
	copy(p, x)
	m.bounds.Clamp(p)
	if m.opts.Quantize != nil {
		m.opts.Quantize(p)
		m.bounds.Clamp(p)
	}
	f, err := m.obj(p)
	if err != nil {
		return vertex{}, err
	}
	if math.IsNaN(f) {
		return vertex{}, fmt.Errorf("optimize: objective returned NaN at %v", p)
	}
	m.res.Evals++
	v := vertex{x: p, f: f}
	if m.best.x == nil || f < m.best.f {
		m.best = v
		step := Step{Eval: m.res.Evals, F: f, X: append([]float64(nil), p...)}
		m.res.Trajectory = append(m.res.Trajectory, step)
	}
	return v, nil
}

// run executes the restart loop: a full Nelder–Mead descent, then up to
// opts.Restarts re-inflations around the incumbent with seeded jitter.
func (m *minimizer) run(x0 []float64) (vertex, error) {
	center := x0
	for attempt := 0; ; attempt++ {
		if err := m.descend(center, attempt); err != nil {
			return vertex{}, err
		}
		if m.res.Evals >= m.opts.MaxEvals || attempt >= m.opts.Restarts {
			return m.best, nil
		}
		m.res.Restarts++
		center = m.best.x
	}
}

// descend is one simplex descent from an initial simplex around center.
// attempt > 0 jitters the re-inflated simplex so a restart never rebuilds
// the collapsed geometry it is escaping.
func (m *minimizer) descend(center []float64, attempt int) error {
	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)
	dim := m.bounds.Dim()

	simplex := make([]vertex, 0, dim+1)
	v, err := m.eval(center)
	if err != nil {
		return err
	}
	simplex = append(simplex, v)
	for i := 0; i < dim; i++ {
		x := append([]float64(nil), center...)
		step := m.opts.InitStep * (m.bounds.Hi[i] - m.bounds.Lo[i])
		if attempt > 0 {
			// Jittered re-inflation: direction and scale drawn from the
			// seeded stream, so restarts explore fresh geometry
			// deterministically.
			step *= 0.5 + m.rng.Float64()
			if m.rng.Intn(2) == 0 {
				step = -step
			}
		}
		if step == 0 { // degenerate dimension (Lo == Hi)
			step = m.opts.Tol
		}
		// Walk downhill from the upper edge: if the step leaves the box,
		// flip it so the simplex spans the interior.
		if x[i]+step > m.bounds.Hi[i] || x[i]+step < m.bounds.Lo[i] {
			step = -step
		}
		x[i] += step
		if v, err = m.eval(x); err != nil {
			return err
		}
		simplex = append(simplex, v)
		if m.res.Evals >= m.opts.MaxEvals {
			return nil
		}
	}

	centroid := make([]float64, dim)
	cand := make([]float64, dim)
	for m.res.Evals < m.opts.MaxEvals {
		sortSimplex(simplex)
		if m.collapsed(simplex) {
			return nil
		}

		// Centroid of all but the worst vertex.
		for i := range centroid {
			centroid[i] = 0
		}
		for _, v := range simplex[:dim] {
			for i, xi := range v.x {
				centroid[i] += xi
			}
		}
		for i := range centroid {
			centroid[i] /= float64(dim)
		}
		worst := simplex[dim]

		// Reflection.
		for i := range cand {
			cand[i] = centroid[i] + alpha*(centroid[i]-worst.x[i])
		}
		refl, err := m.eval(cand)
		if err != nil {
			return err
		}
		switch {
		case refl.f < simplex[0].f:
			// Expansion.
			if m.res.Evals >= m.opts.MaxEvals {
				simplex[dim] = refl
				continue
			}
			for i := range cand {
				cand[i] = centroid[i] + gamma*(refl.x[i]-centroid[i])
			}
			exp, err := m.eval(cand)
			if err != nil {
				return err
			}
			if exp.f < refl.f {
				simplex[dim] = exp
			} else {
				simplex[dim] = refl
			}
		case refl.f < simplex[dim-1].f:
			simplex[dim] = refl
		default:
			// Contraction (outside towards the better of worst/reflected).
			if m.res.Evals >= m.opts.MaxEvals {
				return nil
			}
			toward := worst
			if refl.f < worst.f {
				toward = refl
			}
			for i := range cand {
				cand[i] = centroid[i] + rho*(toward.x[i]-centroid[i])
			}
			con, err := m.eval(cand)
			if err != nil {
				return err
			}
			if con.f < toward.f {
				simplex[dim] = con
				continue
			}
			// Shrink towards the best vertex.
			for j := 1; j < len(simplex); j++ {
				if m.res.Evals >= m.opts.MaxEvals {
					return nil
				}
				for i := range cand {
					cand[i] = simplex[0].x[i] + sigma*(simplex[j].x[i]-simplex[0].x[i])
				}
				if simplex[j], err = m.eval(cand); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// collapsed reports whether the simplex has converged: both the
// coordinate spread and the objective spread are below Tol (scaled by the
// incumbent's magnitude).
func (m *minimizer) collapsed(simplex []vertex) bool {
	tol := m.opts.Tol
	fSpread := math.Abs(simplex[len(simplex)-1].f - simplex[0].f)
	if fSpread > tol*(1+math.Abs(simplex[0].f)) {
		return false
	}
	for _, v := range simplex[1:] {
		for i, xi := range v.x {
			if math.Abs(xi-simplex[0].x[i]) > tol*(1+math.Abs(simplex[0].x[i])) {
				return false
			}
		}
	}
	return true
}

// sortSimplex orders vertices best-first. The sort is stable and ties
// break by the pre-sort index, so equal objective values cannot reorder
// between runs — part of the determinism contract.
func sortSimplex(s []vertex) {
	sort.SliceStable(s, func(i, j int) bool { return s[i].f < s[j].f })
}
