package core

import (
	"fmt"
	"math"

	"github.com/smartdpss/smartdpss/internal/lp"
)

// p5LPScratch holds the LP reference path's reusable substrate: the
// problem rebuilt in place each slot and the solver whose buffers persist
// across the run's near-identical solves, so a slot's solve allocates
// nothing once the first has sized them. The zero value is ready to use.
// These per-slot LPs are a handful of variables and one row; they run on
// lp's one solve path, the sparse revised simplex, like every LP in the
// repository.
type p5LPScratch struct {
	solver lp.Solver
	prob   *lp.Problem
	gen    []lp.VarID
	terms  []lp.Term
}

// solveP5LP solves P5 through the simplex substrate with throwaway
// buffers; the hot path goes through p5LPScratch.solve. It is the
// reference path, mirroring the paper's "solve the two sub-problems using
// classical linear programming approaches, e.g., simplex method"
// (Sec. IV-B Remark).
func solveP5LP(in p5Input) (p5Result, error) {
	var s p5LPScratch
	var flows []float64
	if len(in.genSegs) > 0 {
		flows = make([]float64, len(in.genSegs))
	}
	return s.solve(in, flows)
}

// solve builds and solves the P5 linear program in the scratch's reusable
// problem/solver. flows receives the per-segment generation and becomes
// the result's genFlows (len(in.genSegs); nil without segments). The
// solve is cold and runs the bounded-variable simplex: every cap below is
// a column bound, so the model holds a single row (the balance equality)
// instead of one row per capped variable.
func (s *p5LPScratch) solve(in p5Input, flows []float64) (p5Result, error) {
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
	// analytic path's extra source legs.
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
		return p5Result{}, fmt.Errorf("core: P5 solve: %w", err)
	}
	if sol.Status != lp.Optimal {
		return p5Result{}, fmt.Errorf("core: P5 status %v", sol.Status)
	}
	res := p5Result{
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
	netChargeDischarge(&res, in.etaC, in.etaD)
	return res, nil
}
