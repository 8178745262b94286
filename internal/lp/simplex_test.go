package lp

import (
	"math"
	"testing"
)

const tol = 1e-7

func almostEqual(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= tol*scale
}

func requireOptimal(t *testing.T, sol *Solution, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("Minimize returned error: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
}

func TestMinimizeSimple2D(t *testing.T) {
	// min -x - 2y  s.t. x + y <= 4, x <= 3, y <= 2, x,y >= 0.
	// Optimum at (2, 2): objective -6.
	p := NewProblem()
	x := p.AddVariable("x", 0, 3, -1)
	y := p.AddVariable("y", 0, 2, -2)
	p.AddConstraint(LE, 4, Term{x, 1}, Term{y, 1})

	sol, err := p.Minimize()
	requireOptimal(t, sol, err)
	if !almostEqual(sol.Objective, -6) {
		t.Errorf("objective = %g, want -6", sol.Objective)
	}
	if !almostEqual(sol.Value(x), 2) || !almostEqual(sol.Value(y), 2) {
		t.Errorf("solution = (%g, %g), want (2, 2)", sol.Value(x), sol.Value(y))
	}
}

func TestMinimizeEqualityConstraint(t *testing.T) {
	// min 3x + 2y  s.t. x + y = 10, x >= 2, y >= 1.
	// Optimum: put as much as possible on the cheaper y: x=2, y=8, obj=22.
	p := NewProblem()
	x := p.AddVariable("x", 2, math.Inf(1), 3)
	y := p.AddVariable("y", 1, math.Inf(1), 2)
	p.AddConstraint(EQ, 10, Term{x, 1}, Term{y, 1})

	sol, err := p.Minimize()
	requireOptimal(t, sol, err)
	if !almostEqual(sol.Objective, 22) {
		t.Errorf("objective = %g, want 22", sol.Objective)
	}
	if !almostEqual(sol.Value(x), 2) || !almostEqual(sol.Value(y), 8) {
		t.Errorf("solution = (%g, %g), want (2, 8)", sol.Value(x), sol.Value(y))
	}
}

func TestMinimizeGEConstraints(t *testing.T) {
	// Classic diet-style LP:
	// min 0.6x + 0.35y s.t. 5x + 7y >= 8, 4x + 2y >= 15, x,y >= 0.
	p := NewProblem()
	x := p.AddVariable("x", 0, math.Inf(1), 0.6)
	y := p.AddVariable("y", 0, math.Inf(1), 0.35)
	p.AddConstraint(GE, 8, Term{x, 5}, Term{y, 7})
	p.AddConstraint(GE, 15, Term{x, 4}, Term{y, 2})

	sol, err := p.Minimize()
	requireOptimal(t, sol, err)
	// Check feasibility and optimality value computed by hand:
	// binding constraints intersect at 5x+7y=8, 4x+2y=15 ->
	// x = (15*7-2*8)/(4*7-2*5) = 89/18, y negative -> so optimum on axis:
	// y=0: x >= max(8/5, 15/4) = 3.75, obj = 2.25.
	// x=0: y >= max(8/7, 7.5) = 7.5, obj = 2.625. So expect 2.25.
	if !almostEqual(sol.Objective, 2.25) {
		t.Errorf("objective = %g, want 2.25", sol.Objective)
	}
}

func TestMinimizeNegativeRHS(t *testing.T) {
	// min x  s.t. -x <= -5  (i.e. x >= 5).
	p := NewProblem()
	x := p.AddVariable("x", 0, math.Inf(1), 1)
	p.AddConstraint(LE, -5, Term{x, -1})

	sol, err := p.Minimize()
	requireOptimal(t, sol, err)
	if !almostEqual(sol.Value(x), 5) {
		t.Errorf("x = %g, want 5", sol.Value(x))
	}
}

func TestMinimizeInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 0, 1, 1)
	p.AddConstraint(GE, 2, Term{x, 1})

	sol, err := p.Minimize()
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestMinimizeInfeasibleEquality(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 0, math.Inf(1), 1)
	y := p.AddVariable("y", 0, math.Inf(1), 1)
	p.AddConstraint(EQ, 1, Term{x, 1}, Term{y, 1})
	p.AddConstraint(EQ, 3, Term{x, 1}, Term{y, 1})

	sol, err := p.Minimize()
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestMinimizeUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 0, math.Inf(1), -1)
	p.AddConstraint(GE, 1, Term{x, 1})

	sol, err := p.Minimize()
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestMinimizeUnboundedFreeVariable(t *testing.T) {
	// A free variable with nonzero cost and no constraints is unbounded.
	p := NewProblem()
	p.AddVariable("x", math.Inf(-1), math.Inf(1), 1)

	sol, err := p.Minimize()
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestMinimizeFreeVariable(t *testing.T) {
	// min |shape|: x free, y >= 0, min x + y s.t. x >= -3 via constraint,
	// x + y >= -1. Optimum x = -3, y = 0 -> obj -3.
	p := NewProblem()
	x := p.AddVariable("x", math.Inf(-1), math.Inf(1), 1)
	y := p.AddVariable("y", 0, math.Inf(1), 1)
	p.AddConstraint(GE, -3, Term{x, 1})
	p.AddConstraint(GE, -1, Term{x, 1}, Term{y, 1})

	sol, err := p.Minimize()
	requireOptimal(t, sol, err)
	if !almostEqual(sol.Objective, -1) {
		// x=-3 violates x+y >= -1 unless y=2 (obj -1); x=-1,y=0 also obj -1.
		t.Errorf("objective = %g, want -1", sol.Objective)
	}
}

func TestMinimizeUpperBoundedOnly(t *testing.T) {
	// Variable with lower = -Inf, upper = 4: min -x -> x = 4.
	p := NewProblem()
	x := p.AddVariable("x", math.Inf(-1), 4, -1)
	p.AddConstraint(GE, -100, Term{x, 1}) // keep the feasible region bounded below

	sol, err := p.Minimize()
	requireOptimal(t, sol, err)
	if !almostEqual(sol.Value(x), 4) {
		t.Errorf("x = %g, want 4", sol.Value(x))
	}
}

func TestMinimizeFixedVariable(t *testing.T) {
	// Fixed variable participates as a constant.
	p := NewProblem()
	x := p.AddVariable("x", 5, 5, 2)
	y := p.AddVariable("y", 0, math.Inf(1), 1)
	p.AddConstraint(GE, 8, Term{x, 1}, Term{y, 1})

	sol, err := p.Minimize()
	requireOptimal(t, sol, err)
	if !almostEqual(sol.Value(x), 5) {
		t.Errorf("x = %g, want 5", sol.Value(x))
	}
	if !almostEqual(sol.Value(y), 3) {
		t.Errorf("y = %g, want 3", sol.Value(y))
	}
	if !almostEqual(sol.Objective, 13) {
		t.Errorf("objective = %g, want 13", sol.Objective)
	}
}

func TestMinimizeDegenerate(t *testing.T) {
	// A degenerate LP (redundant constraints through the optimum) must still
	// terminate and find the optimum.
	p := NewProblem()
	x := p.AddVariable("x", 0, math.Inf(1), -1)
	y := p.AddVariable("y", 0, math.Inf(1), -1)
	p.AddConstraint(LE, 1, Term{x, 1})
	p.AddConstraint(LE, 1, Term{y, 1})
	p.AddConstraint(LE, 2, Term{x, 1}, Term{y, 1})
	p.AddConstraint(LE, 4, Term{x, 2}, Term{y, 2})

	sol, err := p.Minimize()
	requireOptimal(t, sol, err)
	if !almostEqual(sol.Objective, -2) {
		t.Errorf("objective = %g, want -2", sol.Objective)
	}
}

func TestMinimizeRedundantEqualities(t *testing.T) {
	// Duplicated equality rows leave an artificial variable basic at zero;
	// the solver must remove the redundant row and still succeed.
	p := NewProblem()
	x := p.AddVariable("x", 0, math.Inf(1), 1)
	y := p.AddVariable("y", 0, math.Inf(1), 2)
	p.AddConstraint(EQ, 4, Term{x, 1}, Term{y, 1})
	p.AddConstraint(EQ, 8, Term{x, 2}, Term{y, 2})

	sol, err := p.Minimize()
	requireOptimal(t, sol, err)
	if !almostEqual(sol.Objective, 4) { // all mass on x
		t.Errorf("objective = %g, want 4", sol.Objective)
	}
}

func TestMinimizeDuplicateTerms(t *testing.T) {
	// Terms repeating a variable must be summed.
	p := NewProblem()
	x := p.AddVariable("x", 0, math.Inf(1), 1)
	p.AddConstraint(GE, 6, Term{x, 1}, Term{x, 2}) // 3x >= 6

	sol, err := p.Minimize()
	requireOptimal(t, sol, err)
	if !almostEqual(sol.Value(x), 2) {
		t.Errorf("x = %g, want 2", sol.Value(x))
	}
}

func TestMinimizeShiftedBounds(t *testing.T) {
	// Lower bounds shift the objective constant correctly.
	p := NewProblem()
	x := p.AddVariable("x", 10, 20, 3)

	sol, err := p.Minimize()
	requireOptimal(t, sol, err)
	if !almostEqual(sol.Objective, 30) {
		t.Errorf("objective = %g, want 30", sol.Objective)
	}
	if !almostEqual(sol.Value(x), 10) {
		t.Errorf("x = %g, want 10", sol.Value(x))
	}
}

func TestMinimizeNegativeLowerBounds(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", -5, 5, 1)
	y := p.AddVariable("y", -5, 5, 1)
	p.AddConstraint(GE, -4, Term{x, 1}, Term{y, 1})

	sol, err := p.Minimize()
	requireOptimal(t, sol, err)
	if !almostEqual(sol.Objective, -4) {
		t.Errorf("objective = %g, want -4", sol.Objective)
	}
}

func TestValidationErrors(t *testing.T) {
	t.Run("no variables", func(t *testing.T) {
		p := NewProblem()
		if _, err := p.Minimize(); err == nil {
			t.Fatal("want error for empty problem")
		}
	})
	t.Run("bad bounds", func(t *testing.T) {
		p := NewProblem()
		p.AddVariable("x", 2, 1, 0)
		if _, err := p.Minimize(); err == nil {
			t.Fatal("want error for inverted bounds")
		}
	})
	t.Run("unknown variable", func(t *testing.T) {
		p := NewProblem()
		p.AddVariable("x", 0, 1, 0)
		p.AddConstraint(LE, 1, Term{Var: 7, Coeff: 1})
		if _, err := p.Minimize(); err == nil {
			t.Fatal("want error for unknown variable reference")
		}
	})
	t.Run("nan cost", func(t *testing.T) {
		p := NewProblem()
		p.AddVariable("x", 0, 1, math.NaN())
		if _, err := p.Minimize(); err == nil {
			t.Fatal("want error for NaN cost")
		}
	})
	t.Run("inf rhs", func(t *testing.T) {
		p := NewProblem()
		x := p.AddVariable("x", 0, 1, 1)
		p.AddConstraint(LE, math.Inf(1), Term{x, 1})
		if _, err := p.Minimize(); err == nil {
			t.Fatal("want error for infinite rhs")
		}
	})
}

func TestIterationLimit(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 0, math.Inf(1), -1)
	y := p.AddVariable("y", 0, math.Inf(1), -1)
	p.AddConstraint(LE, 10, Term{x, 1}, Term{y, 1})
	if _, err := p.Minimize(); err != nil {
		t.Fatalf("default budget: %v", err)
	}
}

func TestSolutionAccessors(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 1, 1, 1)
	sol, err := p.Minimize()
	requireOptimal(t, sol, err)
	if got := sol.Value(VarID(99)); got != 0 {
		t.Errorf("out-of-range Value = %g, want 0", got)
	}
	vals := sol.Values()
	if len(vals) != 1 || !almostEqual(vals[0], 1) {
		t.Errorf("Values() = %v, want [1]", vals)
	}
	_ = x
}

func TestRelationString(t *testing.T) {
	tests := []struct {
		rel  Relation
		want string
	}{
		{LE, "<="},
		{GE, ">="},
		{EQ, "="},
		{Relation(0), "Relation(0)"},
	}
	for _, tt := range tests {
		if got := tt.rel.String(); got != tt.want {
			t.Errorf("Relation(%d).String() = %q, want %q", int(tt.rel), got, tt.want)
		}
	}
}

func TestStatusString(t *testing.T) {
	tests := []struct {
		st   Status
		want string
	}{
		{Optimal, "optimal"},
		{Infeasible, "infeasible"},
		{Unbounded, "unbounded"},
		{Status(0), "Status(0)"},
	}
	for _, tt := range tests {
		if got := tt.st.String(); got != tt.want {
			t.Errorf("Status(%d).String() = %q, want %q", int(tt.st), got, tt.want)
		}
	}
}

func TestMinimizeTransportation(t *testing.T) {
	// A 2x3 balanced transportation problem with known optimum.
	// Supplies: 20, 30. Demands: 10, 25, 15.
	// Costs: [2 4 5; 3 1 7].
	p := NewProblem()
	c := [2][3]float64{{2, 4, 5}, {3, 1, 7}}
	var x [2][3]VarID
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			x[i][j] = p.AddVariable("", 0, math.Inf(1), c[i][j])
		}
	}
	supplies := [2]float64{20, 30}
	demands := [3]float64{10, 25, 15}
	for i := 0; i < 2; i++ {
		p.AddConstraint(EQ, supplies[i], Term{x[i][0], 1}, Term{x[i][1], 1}, Term{x[i][2], 1})
	}
	for j := 0; j < 3; j++ {
		p.AddConstraint(EQ, demands[j], Term{x[0][j], 1}, Term{x[1][j], 1})
	}

	sol, err := p.Minimize()
	requireOptimal(t, sol, err)
	// Optimal assignment: x[1][1]=25 (cost 1), x[1][0]=5 (cost 3),
	// x[0][0]=5 (cost 2), x[0][2]=15 (cost 5) -> 25+15+10+75 = 125.
	if !almostEqual(sol.Objective, 125) {
		t.Errorf("objective = %g, want 125", sol.Objective)
	}
}

func TestMinimizeLargeChain(t *testing.T) {
	// A chained LP with 60 variables: x_{i+1} >= x_i + 1, minimize x_n,
	// x_0 >= 0. Optimum: x_n = n.
	const n = 60
	p := NewProblem()
	ids := make([]VarID, n+1)
	for i := range ids {
		cost := 0.0
		if i == n {
			cost = 1
		}
		ids[i] = p.AddVariable("", 0, math.Inf(1), cost)
	}
	for i := 0; i < n; i++ {
		// x_{i+1} - x_i >= 1
		p.AddConstraint(GE, 1, Term{ids[i+1], 1}, Term{ids[i], -1})
	}
	sol, err := p.Minimize()
	requireOptimal(t, sol, err)
	if !almostEqual(sol.Objective, n) {
		t.Errorf("objective = %g, want %d", sol.Objective, n)
	}
}
