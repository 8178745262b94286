package lp

import (
	"math"
	"testing"
)

// TestBealeCyclingExample solves Beale's classic degenerate LP, on which
// textbook simplex with Dantzig's rule cycles forever without an
// anti-cycling safeguard:
//
//	min  -0.75x4 + 150x5 - 0.02x6 + 6x7
//	s.t. 0.25x4 - 60x5 - 0.04x6 + 9x7 <= 0
//	     0.50x4 - 90x5 - 0.02x6 + 3x7 <= 0
//	     x6 <= 1,  x >= 0
//
// The optimum is -0.05 at x6 = 1. The tableau oracle prices by
// Dantzig's rule, so its stall-triggered switch to Bland's rule must
// terminate here; the solver must reach the same optimum.
func TestBealeCyclingExample(t *testing.T) {
	p := NewProblem()
	x4 := p.AddVariable("x4", 0, math.Inf(1), -0.75)
	x5 := p.AddVariable("x5", 0, math.Inf(1), 150)
	x6 := p.AddVariable("x6", 0, math.Inf(1), -0.02)
	x7 := p.AddVariable("x7", 0, math.Inf(1), 6)
	p.AddConstraint(LE, 0, Term{x4, 0.25}, Term{x5, -60}, Term{x6, -0.04}, Term{x7, 9})
	p.AddConstraint(LE, 0, Term{x4, 0.5}, Term{x5, -90}, Term{x6, -0.02}, Term{x7, 3})
	p.AddConstraint(LE, 1, Term{x6, 1})

	var s Solver
	for _, c := range []struct {
		name  string
		solve func(*Problem) (Solution, error)
	}{{"solver", s.Solve}, {"tableau", solveTableau}} {
		sol, err := c.solve(p)
		if err != nil {
			t.Fatalf("%s: Beale example failed to terminate: %v", c.name, err)
		}
		if sol.Status != Optimal {
			t.Fatalf("%s: status = %v, want optimal", c.name, sol.Status)
		}
		if math.Abs(sol.Objective-(-0.05)) > 1e-9 {
			t.Errorf("%s: objective = %g, want -0.05", c.name, sol.Objective)
		}
		if math.Abs(sol.Value(x6)-1) > 1e-9 {
			t.Errorf("%s: x6 = %g, want 1", c.name, sol.Value(x6))
		}
	}
}

// TestKleeMintyCube solves the 3-dimensional Klee–Minty cube, the
// worst-case exponential path for Dantzig's rule; correctness (not speed)
// is what matters here.
func TestKleeMintyCube(t *testing.T) {
	// max 100x1 + 10x2 + x3  ≡  min -(100x1 + 10x2 + x3)
	// s.t. x1 <= 1; 20x1 + x2 <= 100; 200x1 + 20x2 + x3 <= 10000.
	p := NewProblem()
	x1 := p.AddVariable("x1", 0, math.Inf(1), -100)
	x2 := p.AddVariable("x2", 0, math.Inf(1), -10)
	x3 := p.AddVariable("x3", 0, math.Inf(1), -1)
	p.AddConstraint(LE, 1, Term{x1, 1})
	p.AddConstraint(LE, 100, Term{x1, 20}, Term{x2, 1})
	p.AddConstraint(LE, 10000, Term{x1, 200}, Term{x2, 20}, Term{x3, 1})

	sol, err := p.Minimize()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-(-10000)) > 1e-6 {
		t.Errorf("objective = %g, want -10000", sol.Objective)
	}
}
