package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// rowForm restates p in the row-per-bound formulation: each finite upper
// bound of a lower-bounded, non-fixed variable becomes an explicit
// x ≤ upper row, appended after p's constraints in variable order, and
// the variable keeps only its lower bound. Solving the result on the
// tableau oracle reproduces the retired row-bound solve mode bit for bit
// (status, pivot count, objective and every value); on either solver it
// is the reference formulation the bounded-variable simplex is checked
// against.
func rowForm(p *Problem) *Problem {
	q := NewProblem()
	lowered := func(v variable) bool {
		return !math.IsInf(v.lower, -1) && v.lower < v.upper && !math.IsInf(v.upper, 1)
	}
	for _, v := range p.vars {
		upper := v.upper
		if lowered(v) {
			upper = math.Inf(1)
		}
		q.AddVariable(v.name, v.lower, upper, v.cost)
	}
	for _, c := range p.cons {
		q.AddConstraint(c.rel, c.rhs, c.terms...)
	}
	for i, v := range p.vars {
		if lowered(v) {
			q.AddConstraint(LE, v.upper, Term{VarID(i), 1})
		}
	}
	return q
}

// TestBoundedMatchesRowFormulation is the row-vs-bound parity property:
// the same random box LP solved through the row formulation (rowForm)
// and through the bounded-variable simplex must agree on status and
// optimal objective, and both solutions must satisfy the original
// constraints and bounds. Solution vectors may differ on degenerate
// instances (alternate optimal vertices), so the cross-check is
// objective-level plus feasibility.
func TestBoundedMatchesRowFormulation(t *testing.T) {
	r := rand.New(rand.NewSource(501))
	f := func() bool {
		g := genBoxLP(r)
		pb, _ := g.build()
		pr := rowForm(pb)
		rowSol, errR := pr.Minimize()
		bndSol, errB := pb.Minimize()
		if (errR != nil) != (errB != nil) {
			t.Logf("error mismatch: row %v vs bounded %v (problem %+v)", errR, errB, g)
			return false
		}
		if errR != nil {
			return true
		}
		if rowSol.Status != bndSol.Status {
			t.Logf("status mismatch: row %v vs bounded %v (problem %+v)",
				rowSol.Status, bndSol.Status, g)
			return false
		}
		if rowSol.Status != Optimal {
			return true
		}
		if math.Abs(rowSol.Objective-bndSol.Objective) > 1e-6*math.Max(1, math.Abs(rowSol.Objective)) {
			t.Logf("objective mismatch: row %.9g vs bounded %.9g (problem %+v)",
				rowSol.Objective, bndSol.Objective, g)
			return false
		}
		if !g.feasible(bndSol.Values(), 1e-6) {
			t.Logf("bounded optimum infeasible: %v (problem %+v)", bndSol.Values(), g)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Fatal(err)
	}
}

// TestBoundedBruteForceCrossValidation repeats the exhaustive vertex
// enumeration cross-check against the bounded-variable simplex: on random
// small boxes the bound-flip pivot loop must reach the same optimum the
// enumerator finds.
func TestBoundedBruteForceCrossValidation(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	checked := 0
	for trial := 0; trial < 600; trial++ {
		g := genBoxLP(r)
		if g.nVars > 3 {
			continue // keep the C(n+m, n) enumeration cheap
		}
		p, _ := g.build()
		sol, err := p.Minimize()
		if err != nil {
			t.Fatalf("trial %d: solver error: %v (problem %+v)", trial, err, g)
		}
		bfBest, bfFound := bruteForceMin(g)
		switch sol.Status {
		case Optimal:
			if !bfFound {
				if !g.feasible(sol.Values(), 1e-6) {
					t.Fatalf("trial %d: optimum not feasible (problem %+v)", trial, g)
				}
				continue
			}
			if math.Abs(bfBest-sol.Objective) > 1e-5*math.Max(1, math.Abs(bfBest)) {
				t.Fatalf("trial %d: bounded simplex %.9g vs brute force %.9g (problem %+v)",
					trial, sol.Objective, bfBest, g)
			}
			checked++
		case Infeasible:
			if bfFound {
				t.Fatalf("trial %d: bounded solver infeasible but brute force found obj %g (problem %+v)",
					trial, bfBest, g)
			}
		case Unbounded:
			t.Fatalf("trial %d: bounded box cannot be unbounded (problem %+v)", trial, g)
		}
	}
	if checked < 50 {
		t.Fatalf("only %d optimal instances cross-checked; generator too restrictive", checked)
	}
}

// TestBoundedPureBoxFlips exercises the bound-flip path in isolation: a
// problem with no constraint rows at all, where every negative-cost
// variable must flip to its upper bound and every non-negative-cost
// variable must stay at its lower bound.
func TestBoundedPureBoxFlips(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 0, 3, -2)    // flips to 3
	y := p.AddVariable("y", 1, 4, 5)     // stays at 1
	z := p.AddVariable("z", -2, 2, -1)   // flips to 2
	w := p.AddVariable("w", 0.5, 9, 0)   // zero cost: stays at 0.5
	p.AddConstraint(LE, 100, Term{x, 1}) // keep the problem non-empty of rows

	sol, err := p.Minimize()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	want := -2.0*3 + 5*1 + -1.0*2
	if math.Abs(sol.Objective-want) > 1e-9 {
		t.Errorf("objective = %g, want %g", sol.Objective, want)
	}
	for i, exp := range map[VarID]float64{x: 3, y: 1, z: 2, w: 0.5} {
		if got := sol.Value(i); math.Abs(got-exp) > 1e-9 {
			t.Errorf("x%d = %g, want %g", int(i), got, exp)
		}
	}
}

// TestBoundedNoRows solves a bounded problem with zero constraint rows —
// the m = 0 basis where the ratio test can only stop at the entering
// variable's own bound.
func TestBoundedNoRows(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 0, 7, -1)
	y := p.AddVariable("y", 0, 2, 1)

	sol, err := p.Minimize()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective+7) > 1e-9 {
		t.Fatalf("got %v obj %g, want optimal -7", sol.Status, sol.Objective)
	}
	if sol.Value(x) != 7 || sol.Value(y) != 0 {
		t.Errorf("values (%g, %g), want (7, 0)", sol.Value(x), sol.Value(y))
	}
}

// TestBoundedReflectionPath pins the leaving-at-upper-bound case: x1
// enters the basis degenerately at zero, then x2's entry drives the basic
// x1 up to its bound, so x1 leaves at its upper bound (on the tableau
// oracle, through the reflection rewrite before the pivot).
//
//	min −3x1 + x2   s.t. x1 − x2 ≤ 0,  x1 ∈ [0, 2],  x2 ∈ [0, 5]
//
// The optimum is x1 = 2 (at its upper bound), x2 = 2, objective −4.
func TestBoundedReflectionPath(t *testing.T) {
	p := NewProblem()
	x1 := p.AddVariable("x1", 0, 2, -3)
	x2 := p.AddVariable("x2", 0, 5, 1)
	p.AddConstraint(LE, 0, Term{x1, 1}, Term{x2, -1})

	var s Solver
	for _, c := range []struct {
		name  string
		solve func(*Problem) (Solution, error)
	}{{"solver", s.Solve}, {"tableau", solveTableau}} {
		sol, err := c.solve(p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if sol.Status != Optimal {
			t.Fatalf("%s: status = %v", c.name, sol.Status)
		}
		if math.Abs(sol.Objective-(-4)) > 1e-9 {
			t.Errorf("%s: objective = %g, want -4", c.name, sol.Objective)
		}
		if math.Abs(sol.Value(x1)-2) > 1e-9 || math.Abs(sol.Value(x2)-2) > 1e-9 {
			t.Errorf("%s: solution (%g, %g), want (2, 2)", c.name, sol.Value(x1), sol.Value(x2))
		}
	}
}

// TestBoundedBealeWithBound solves Beale's degenerate cycling example with
// the binding x6 ≤ 1 expressed as a variable bound instead of a row: the
// bounded pivot loop must terminate (anti-cycling) at the same optimum.
func TestBoundedBealeWithBound(t *testing.T) {
	p := NewProblem()
	x4 := p.AddVariable("x4", 0, math.Inf(1), -0.75)
	x5 := p.AddVariable("x5", 0, math.Inf(1), 150)
	x6 := p.AddVariable("x6", 0, 1, -0.02)
	x7 := p.AddVariable("x7", 0, math.Inf(1), 6)
	p.AddConstraint(LE, 0, Term{x4, 0.25}, Term{x5, -60}, Term{x6, -0.04}, Term{x7, 9})
	p.AddConstraint(LE, 0, Term{x4, 0.5}, Term{x5, -90}, Term{x6, -0.02}, Term{x7, 3})

	sol, err := p.Minimize()
	if err != nil {
		t.Fatalf("Beale example failed to terminate: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if math.Abs(sol.Objective-(-0.05)) > 1e-9 {
		t.Errorf("objective = %g, want -0.05", sol.Objective)
	}
	if math.Abs(sol.Value(x6)-1) > 1e-9 {
		t.Errorf("x6 = %g, want 1", sol.Value(x6))
	}
}

// TestBoundedFixedVariables mixes variables fixed at lower == upper into a
// bounded problem: fixed variables must keep their value, contribute their
// constants to every row, and never enter the basis.
func TestBoundedFixedVariables(t *testing.T) {
	p := NewProblem()
	fx := p.AddVariable("fx", 1.5, 1.5, 10) // fixed, cost contributes 15
	x := p.AddVariable("x", 0, 4, 1)
	fy := p.AddVariable("fy", -2, -2, 0) // fixed negative
	// x + fx + fy = 2  ⇒  x = 2.5.
	p.AddConstraint(EQ, 2, Term{fx, 1}, Term{x, 1}, Term{fy, 1})

	sol, err := p.Minimize()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if got := sol.Value(fx); got != 1.5 {
		t.Errorf("fx = %g, want 1.5", got)
	}
	if got := sol.Value(fy); got != -2 {
		t.Errorf("fy = %g, want -2", got)
	}
	if got := sol.Value(x); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("x = %g, want 2.5", got)
	}
	if want := 10*1.5 + 2.5; math.Abs(sol.Objective-want) > 1e-9 {
		t.Errorf("objective = %g, want %g", sol.Objective, want)
	}
}

// TestBoundedDegenerateTies solves a degenerate bounded instance where
// several ratio-test limits coincide at zero and the bound flip competes
// with pivots: termination and the optimal objective are what matter.
func TestBoundedDegenerateTies(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 0, 1, -1)
	y := p.AddVariable("y", 0, 1, -1)
	z := p.AddVariable("z", 0, 1, -1)
	// Three redundant constraints all tight at the origin.
	p.AddConstraint(LE, 0, Term{x, 1}, Term{y, -1})
	p.AddConstraint(LE, 0, Term{y, 1}, Term{z, -1})
	p.AddConstraint(LE, 0, Term{x, 1}, Term{z, -1})

	sol, err := p.Minimize()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	// x ≤ y ≤ z ≤ 1 and x ≤ z, all maximized: x = y = z = 1.
	if math.Abs(sol.Objective-(-3)) > 1e-9 {
		t.Errorf("objective = %g, want -3", sol.Objective)
	}
}

// TestBoundedInfeasibleAndUnbounded checks status classification survives
// the bounded rewrite.
func TestBoundedInfeasibleAndUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 0, 1, 1)
	p.AddConstraint(GE, 5, Term{x, 1}) // x ≤ 1 cannot reach 5
	sol, err := p.Minimize()
	if err != nil || sol.Status != Infeasible {
		t.Fatalf("infeasible case: %v %v", err, sol.Status)
	}

	p2 := NewProblem()
	y := p2.AddVariable("y", 0, math.Inf(1), -1)
	z := p2.AddVariable("z", 0, 2, 1)
	p2.AddConstraint(GE, 0, Term{y, 1}, Term{z, 1})
	sol2, err := p2.Minimize()
	if err != nil || sol2.Status != Unbounded {
		t.Fatalf("unbounded case: %v %v", err, sol2.Status)
	}
}

// TestBoundedStandardFormShrinksTableau pins the bounded formulation's
// size win: the standard form emits no row for variable upper bounds, so
// a box problem holds exactly the caller's constraint rows, where the
// row formulation (rowForm) of the same problem needs one more row per
// upper-bounded variable.
func TestBoundedStandardFormShrinksTableau(t *testing.T) {
	p := NewProblem()
	ids := make([]VarID, 6)
	for i := range ids {
		ids[i] = p.AddVariable("", 0, float64(i+1), 1)
	}
	free := p.AddVariable("free", 0, math.Inf(1), 1)
	p.AddConstraint(EQ, 3, Term{ids[0], 1}, Term{ids[1], 1}, Term{free, 1})
	p.AddConstraint(LE, 5, Term{ids[2], 1}, Term{ids[3], 2})
	var bnd, row standardForm
	p.buildStandardForm(&bnd)
	rowForm(p).buildStandardForm(&row)
	if got, want := len(row.rows), 2+6; got != want {
		t.Fatalf("row formulation has %d rows, want %d (2 constraints + 6 bounds)", got, want)
	}
	if got, want := len(bnd.rows), 2; got != want {
		t.Fatalf("bounded formulation has %d rows, want %d (constraints only)", got, want)
	}
	finite := 0
	for _, u := range bnd.upper {
		if !math.IsInf(u, 1) {
			finite++
		}
	}
	if finite != 6 {
		t.Fatalf("bounded formulation recorded %d column bounds, want 6", finite)
	}
}
