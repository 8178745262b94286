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

// storageLP is an h-slot storage dispatch LP in the shape of
// Lookahead's window: per slot a purchase, a charge, a discharge, a
// waste and a shortfall column, a balance row and two battery-level rows
// over the growing prefix. Its matrix depends only on h, the charge
// efficiency and which slot's charge column is fixed at zero (-1 for
// none); its costs, bounds and right-hand sides are drawn from r, on a
// coarse grid so ties are common, and no drawn bound fixes a column.
type storageLP struct {
	h     int
	eff   float64
	fixed int
}

func (g storageLP) build(r *rand.Rand) *Problem {
	p := NewProblem()
	inf := math.Inf(1)
	b0 := math.Round(r.Float64()*8) / 4
	level := make([]Term, 0, 2*g.h)
	for i := 0; i < g.h; i++ {
		buy := p.AddVariable("", 0, 0.25+math.Round(r.Float64()*12)/4, math.Round(r.Float64()*80)/4)
		hiC := 1.0
		if i == g.fixed {
			hiC = 0
		}
		c := p.AddVariable("", 0, hiC, 0.5)
		d := p.AddVariable("", 0, 1, 0.5)
		waste := p.AddVariable("", 0, inf, 1)
		short := p.AddVariable("", 0, inf, 100)
		p.AddConstraint(EQ, math.Round(r.Float64()*12)/4-0.5,
			Term{buy, 1}, Term{d, 1}, Term{short, 1}, Term{c, -1}, Term{waste, -1})
		level = append(level, Term{c, g.eff}, Term{d, -1})
		p.AddConstraint(GE, -b0, level...)
		p.AddConstraint(LE, 2-b0, level...)
	}
	return p
}

// TestSolverStartReuseMatchesFresh holds the cold-start reuse to its
// claim: one Solver runs a sequence of problems whose matrices repeat,
// differ from the saved one in one coefficient's last bit, lose a column
// to a fixed bound, or take a new shape, and every solve matches a fresh
// Solver's — status, objective, iteration count and every value, bit for
// bit. The sequence also pins when a start is reused: only after two
// consecutive solves of one matrix saved it, and only for that matrix.
func TestSolverStartReuseMatchesFresh(t *testing.T) {
	a := storageLP{h: 6, eff: 0.9, fixed: -1}
	lastBit := a
	lastBit.eff = math.Nextafter(a.eff, 1)
	fixed := a
	fixed.fixed = 2
	wider := a
	wider.h = 7
	seq := []struct {
		g      storageLP
		reused bool
	}{
		{a, false}, {a, false}, {a, true}, {a, true},
		{lastBit, false}, {a, true},
		{fixed, false}, {a, true},
		{wider, false}, {wider, false}, {wider, true},
		{a, false}, {a, false}, {a, true},
	}
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		var s Solver
		for k, step := range seq {
			p := step.g.build(r)
			var fresh Solver
			want, werr := fresh.Solve(p)
			before := s.restored
			got, gerr := s.Solve(p)
			if reused := s.restored > before; reused != step.reused {
				t.Fatalf("trial %d step %d: start reused %v, want %v", trial, k, reused, step.reused)
			}
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("trial %d step %d: fresh error %v, reused-solver error %v", trial, k, werr, gerr)
			}
			if werr != nil {
				continue
			}
			if want.Status != got.Status || want.Iterations != got.Iterations ||
				math.Float64bits(want.Objective) != math.Float64bits(got.Objective) {
				t.Fatalf("trial %d step %d: fresh %v/%d/%v, reused solver %v/%d/%v", trial, k,
					want.Status, want.Iterations, want.Objective, got.Status, got.Iterations, got.Objective)
			}
			for i := range p.NumVariables() {
				if w, g := want.Value(VarID(i)), got.Value(VarID(i)); math.Float64bits(w) != math.Float64bits(g) {
					t.Fatalf("trial %d step %d: value %d fresh %v, reused solver %v", trial, k, i, w, g)
				}
			}
		}
	}
}

// TestStartMatchesComparesExactly covers the compare that gates a
// restore: a matrix one bit away from the saved one, or with a row's
// terms in another order, is refused.
func TestStartMatchesComparesExactly(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := storageLP{h: 4, eff: 0.9, fixed: -1}
	var s Solver
	for range 2 {
		if _, err := s.Solve(g.build(r)); err != nil {
			t.Fatal(err)
		}
	}
	st, rs := &s.start, &s.rev
	if !st.ok || !st.matches(rs) {
		t.Fatal("two solves of one matrix saved no start that matches it")
	}
	v := rs.colVal[3]
	rs.colVal[3] = math.Nextafter(v, math.Inf(1))
	if st.matches(rs) {
		t.Error("a coefficient one bit off matched the saved start")
	}
	rs.colVal[3] = v
	rcol := rs.sf.rcol
	rcol[0], rcol[1] = rcol[1], rcol[0]
	if st.matches(rs) {
		t.Error("a row walked in another order matched the saved start")
	}
	rcol[0], rcol[1] = rcol[1], rcol[0]
	if !st.matches(rs) {
		t.Error("the restored matrix no longer matches")
	}
}
