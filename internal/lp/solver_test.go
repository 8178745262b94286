package lp

import (
	"math"
	"math/rand"
	"testing"
)

// buildTransport fills p with a small transport-like problem whose shape
// is constant but whose costs and right-hand sides vary with the
// parameters — the same-shape sequence profile of the baseline interval
// and receding-horizon LPs.
func buildTransport(p *Problem, demand, cap1, cap2, c1, c2 float64) (x1, x2, short VarID) {
	x1 = p.AddVariable("x1", 0, cap1, c1)
	x2 = p.AddVariable("x2", 0, cap2, c2)
	short = p.AddVariable("short", 0, math.Inf(1), 1e4)
	p.AddConstraint(EQ, demand,
		Term{Var: x1, Coeff: 1}, Term{Var: x2, Coeff: 1}, Term{Var: short, Coeff: 1})
	p.AddConstraint(LE, cap1+cap2,
		Term{Var: x1, Coeff: 1}, Term{Var: x2, Coeff: 2})
	return x1, x2, short
}

// TestSolverSolveMatchesMinimize pins the cold Solver path to the
// historical Minimize results across a spread of random problems: same
// status, same objective, same values, bit for bit. One Solver serves
// every problem, bounded ones and their row formulations (rowForm)
// interleaved, so no state may carry from one solve to the next.
func TestSolverSolveMatchesMinimize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSolver()
	for it := 0; it < 200; it++ {
		p := NewProblem()
		nv := 1 + rng.Intn(6)
		vars := make([]VarID, nv)
		for i := range vars {
			lo := rng.Float64() * 2
			hi := lo + rng.Float64()*3
			vars[i] = p.AddVariable("", lo, hi, rng.NormFloat64()*10)
		}
		for c := 0; c < 1+rng.Intn(4); c++ {
			terms := make([]Term, 0, nv)
			for i := range vars {
				if rng.Float64() < 0.7 {
					terms = append(terms, Term{Var: vars[i], Coeff: rng.NormFloat64()})
				}
			}
			if len(terms) == 0 {
				terms = append(terms, Term{Var: vars[0], Coeff: 1})
			}
			rel := []Relation{LE, GE, EQ}[rng.Intn(3)]
			p.AddConstraint(rel, rng.NormFloat64()*3, terms...)
		}

		if it%2 == 0 {
			p = rowForm(p)
		}

		want, errW := p.Minimize()
		got, errG := s.Solve(p)
		if (errW != nil) != (errG != nil) {
			t.Fatalf("iter %d: error mismatch: %v vs %v", it, errW, errG)
		}
		if errW != nil {
			continue
		}
		if want.Status != got.Status {
			t.Fatalf("iter %d: status %v vs %v", it, want.Status, got.Status)
		}
		if want.Status != Optimal {
			continue
		}
		if want.Objective != got.Objective {
			t.Fatalf("iter %d: objective %v vs %v", it, want.Objective, got.Objective)
		}
		if want.Iterations != got.Iterations {
			t.Fatalf("iter %d: iterations %d vs %d", it, want.Iterations, got.Iterations)
		}
		for i := range vars {
			if want.Value(vars[i]) != got.Value(vars[i]) {
				t.Fatalf("iter %d: value[%d] %v vs %v",
					it, i, want.Value(vars[i]), got.Value(vars[i]))
			}
		}
	}

	// The same solver reaches Optimal again after an Infeasible solve.
	feas := func(demand float64) *Problem {
		p := NewProblem()
		x := p.AddVariable("x", 0, 1, 1)
		y := p.AddVariable("y", 0, 1, 2)
		p.AddConstraint(EQ, demand, Term{Var: x, Coeff: 1}, Term{Var: y, Coeff: 1})
		return p
	}
	if sol, err := s.Solve(feas(5)); err != nil || sol.Status != Infeasible {
		t.Fatalf("infeasible solve: %v %v", err, sol.Status)
	}
	sol, err := s.Solve(feas(0.5))
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve after infeasible: %v %v", err, sol.Status)
	}
	if math.Abs(sol.Objective-0.5) > 1e-9 {
		t.Fatalf("objective after infeasible = %v, want 0.5", sol.Objective)
	}
}

// TestProblemResetReusesStorage pins the Reset contract: rebuilding a
// same-shape problem after Reset produces identical solves and reuses
// the constraint storage (no growth in capacity).
func TestProblemResetReusesStorage(t *testing.T) {
	p := NewProblem()
	buildTransport(p, 2, 2, 2, 10, 20)
	first, err := p.Minimize()
	if err != nil {
		t.Fatal(err)
	}
	p.Reset()
	if p.NumVariables() != 0 || p.NumConstraints() != 0 {
		t.Fatalf("Reset left %d vars, %d cons", p.NumVariables(), p.NumConstraints())
	}
	x1, _, _ := buildTransport(p, 2, 2, 2, 10, 20)
	second, err := p.Minimize()
	if err != nil {
		t.Fatal(err)
	}
	if first.Objective != second.Objective {
		t.Fatalf("objective changed across Reset: %v vs %v", first.Objective, second.Objective)
	}
	if second.Value(x1) != first.Value(x1) {
		t.Fatalf("value changed across Reset: %v vs %v", first.Value(x1), second.Value(x1))
	}
}

// TestFeasibleRejectsInfeasiblePoints hands the residual check behind
// Solve points that break a bound or a row by more than its scale-aware
// tolerance, points that sit just inside it, and a NaN. The check must
// not allocate.
func TestFeasibleRejectsInfeasiblePoints(t *testing.T) {
	p := NewProblem()
	free := math.Inf(1)
	a := p.AddVariable("a", 0, 1e6, 1)
	b := p.AddVariable("b", -free, 2, 1)
	c := p.AddVariable("c", -5, -5, 0)
	u1, u2 := p.AddVariable("u1", -free, free, 0), p.AddVariable("u2", -free, free, 0)
	v1, v2 := p.AddVariable("v1", -free, free, 0), p.AddVariable("v2", -free, free, 0)
	w1, w2 := p.AddVariable("w1", -free, free, 0), p.AddVariable("w2", -free, free, 0)
	p.AddConstraint(LE, 20, Term{u1, 1}, Term{u2, 1e-2})
	p.AddConstraint(GE, 1, Term{v1, 1}, Term{v2, -1e3})
	p.AddConstraint(EQ, 3, Term{w1, 1}, Term{w2, 1}, Term{w1, 1})
	base := []float64{5, 1, -5, 2, 1001.5, 1001.5, 1, 1, 1}
	if !p.feasible(base) {
		t.Fatalf("feasible point %v rejected", base)
	}
	for _, tc := range []struct {
		name string
		at   VarID
		v    float64
		ok   bool
	}{
		{"below a lower bound", a, -0.5, false},
		{"within the tolerance of a 1e6-wide bound", a, -0.05, true},
		{"above an upper bound", b, 2 + 1e-5, false},
		{"within the tolerance of an upper bound", b, 2 + 1e-7, true},
		{"off a fixed value", c, -5.001, false},
		{"LE row exceeded", u1, 10, false},
		{"GE row short", v1, 1000.5, false},
		{"GE row within its tolerance", v1, 1000.9999999, true},
		{"EQ row off", w2, 1.001, false},
		{"NaN value", u2, math.NaN(), false},
	} {
		pt := append([]float64(nil), base...)
		pt[tc.at] = tc.v
		if got := p.feasible(pt); got != tc.ok {
			t.Errorf("%s: feasible(%v) = %v, want %v", tc.name, pt, got, tc.ok)
		}
	}
	if n := testing.AllocsPerRun(100, func() { p.feasible(base) }); n != 0 {
		t.Errorf("feasible allocates %v times per call, want 0", n)
	}
}
