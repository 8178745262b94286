package core

import (
	"fmt"
	"math"
	"testing"

	"github.com/smartdpss/smartdpss/internal/lp"
	"github.com/smartdpss/smartdpss/internal/scratch"
)

// p5LPScratch is the tests' simplex model of P5, the oracle the
// merit-order solver is held to: the problem rebuilt in place per
// instance and the solver whose buffers persist across near-identical
// solves, so a solve allocates nothing once the first has sized them.
// The zero value is ready to use. These LPs are a handful of variables
// and one row; they run on lp's one solve path, the sparse revised
// simplex, like every LP in the repository.
type p5LPScratch struct {
	solver lp.Solver
	prob   *lp.Problem
	gen    []lp.VarID
	terms  []lp.Term

	// pairValue's two solves; both write their segment flows into flows.
	free, frozen p5Result
	flows        []float64
}

// solveP5LP solves P5 through the simplex substrate with throwaway
// buffers, as the paper's Sec. IV-B Remark suggests ("solve the two
// sub-problems using classical linear programming approaches, e.g.,
// simplex method"); repeated solves go through p5LPScratch.solve.
func solveP5LP(in p5Input) (p5Result, error) {
	var s p5LPScratch
	var flows []float64
	if len(in.genSegs) > 0 {
		flows = make([]float64, len(in.genSegs))
	}
	var res p5Result
	err := s.solve(&in, flows, &res)
	return res, err
}

// solve builds and solves the P5 linear program in the scratch's reusable
// problem/solver and writes the optimum into res; on an error res is
// left as it was. flows receives the per-segment generation and becomes
// the result's genFlows (len(in.genSegs); nil without segments). The
// solve is cold and runs the bounded-variable simplex: every cap below is
// a column bound, so the model holds a single row (the balance equality)
// instead of one row per capped variable.
func (s *p5LPScratch) solve(in *p5Input, flows []float64, res *p5Result) error {
	if s.prob == nil {
		s.prob = lp.NewProblem()
	}
	prob := s.prob
	prob.Reset()
	grt := prob.AddVariable("grt", 0, max(0, in.grtMax), in.wGrt)
	sdt := prob.AddVariable("sdt", 0, max(0, in.sdtMax), in.wSdt)
	brc := prob.AddVariable("brc", 0, max(0, in.chargeMax), in.wCharge)
	bdc := prob.AddVariable("bdc", 0, max(0, in.dischargeMax), -in.wCharge)
	waste := prob.AddVariable("waste", 0, math.Inf(1), in.wWaste)
	emerg := prob.AddVariable("unserved", 0, math.Inf(1), in.wEmergency)
	// One variable per generator fuel-curve segment, mirroring the
	// merit-order solver's extra source legs.
	gen := s.gen[:0]
	for _, seg := range in.genSegs {
		gen = append(gen, prob.AddVariable("", 0, max(0, seg.cap), seg.w))
	}
	s.gen = gen

	// Balance (Eq. 4): base + grt + bdc + g + unserved = dds + sdt + brc + W.
	terms := append(s.terms[:0],
		lp.Term{Var: grt, Coeff: 1},
		lp.Term{Var: bdc, Coeff: 1},
		lp.Term{Var: emerg, Coeff: 1},
		lp.Term{Var: sdt, Coeff: -1},
		lp.Term{Var: brc, Coeff: -1},
		lp.Term{Var: waste, Coeff: -1},
	)
	for _, g := range gen {
		terms = append(terms, lp.Term{Var: g, Coeff: 1})
	}
	s.terms = terms
	prob.AddConstraint(lp.EQ, in.dds-in.base, terms...)

	sol, err := s.solver.Solve(prob)
	if err != nil {
		return fmt.Errorf("core: P5 solve: %w", err)
	}
	if sol.Status != lp.Optimal {
		return fmt.Errorf("core: P5 status %v", sol.Status)
	}
	*res = p5Result{
		grt:       sol.Value(grt),
		sdt:       sol.Value(sdt),
		charge:    sol.Value(brc),
		discharge: sol.Value(bdc),
		waste:     sol.Value(waste),
		unserved:  sol.Value(emerg),
		obj:       sol.Objective,
	}
	if len(gen) > 0 {
		res.genFlows = flows[:len(gen)]
		for i, g := range gen {
			v := sol.Value(g)
			res.gen += v
			res.genFlows[i] = v
		}
	}
	netChargeDischarge(res, in.etaC, in.etaD)
	return nil
}

// pairValue solves in's P5 pair on the LP oracle, the battery-free
// instance and the battery-frozen one, and returns the pair's value: the
// smaller of the free optimum, plus V·Cb when it moves the battery, and
// the frozen optimum. It is the value Controller.solveBest returns.
func (s *p5LPScratch) pairValue(p *Params, in *p5Input) (float64, error) {
	s.flows = scratch.For(s.flows, len(in.genSegs))
	if err := s.solve(in, s.flows, &s.free); err != nil {
		return 0, err
	}
	fin := in.frozen()
	if err := s.solve(&fin, s.flows, &s.frozen); err != nil {
		return 0, err
	}
	freeTotal := s.free.obj
	if s.free.batteryUsed() {
		freeTotal += p.V * p.Battery.OpCostUSD
	}
	return min(freeTotal, s.frozen.obj), nil
}

// TestSolveBestMatchesLPOnRecordedMonth holds the controller's P5 pair
// to the LP oracle on every slot instance of a recorded default
// SmartDPSS month: solveBest's total must equal the LP pair's value
// within 1e-6 relative.
func TestSolveBestMatchesLPOnRecordedMonth(t *testing.T) {
	m := recordMonth(t, nil)
	c, err := New(m.params)
	if err != nil {
		t.Fatal(err)
	}
	var s p5LPScratch
	var res p5Result
	worst := 0.0
	for i := range m.pairs {
		in := &m.pairs[i]
		want, err := s.pairValue(&m.params, in)
		if err != nil {
			t.Fatalf("slot %d: LP pair: %v", i, err)
		}
		got := c.solveBest(in, &res)
		gap := math.Abs(got-want) / math.Max(1, math.Abs(want))
		if gap > 1e-6 {
			t.Errorf("slot %d: solveBest total %.12g, LP pair %.12g", i, got, want)
		}
		worst = max(worst, gap)
	}
	t.Logf("%d instances, worst relative gap %.3g", len(m.pairs), worst)
}
