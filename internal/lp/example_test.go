package lp_test

import (
	"fmt"

	"github.com/smartdpss/smartdpss/internal/lp"
)

// ExampleSolver dispatches a 4 MWh demand slot across three power
// sources with the bounded-variable simplex: every capacity limit is a
// variable bound, so the model holds a single row — the demand balance
// — instead of one extra row per capped source.
func ExampleSolver() {
	p := lp.NewProblem()

	grid := p.AddVariable("grid", 0, 2.0, 47.0)   // ≤ 2 MWh at 47 $/MWh
	gen := p.AddVariable("gen", 0, 1.5, 38.0)     // ≤ 1.5 MWh at 38 $/MWh
	battery := p.AddVariable("batt", 0, 1.0, 5.0) // ≤ 1 MWh at 5 $/MWh wear
	unserved := p.AddVariable("unserved", 0, 4.0, 1e6)

	// grid + gen + battery + unserved = demand.
	p.AddConstraint(lp.EQ, 4.0,
		lp.Term{Var: grid, Coeff: 1},
		lp.Term{Var: gen, Coeff: 1},
		lp.Term{Var: battery, Coeff: 1},
		lp.Term{Var: unserved, Coeff: 1},
	)

	solver := lp.NewSolver()
	sol, err := solver.Solve(p)
	if err != nil {
		fmt.Println("solve failed:", err)
		return
	}
	fmt.Println("status:", sol.Status)
	fmt.Printf("cost: $%.2f\n", sol.Objective)
	fmt.Printf("grid %.1f + gen %.1f + battery %.1f + unserved %.1f MWh\n",
		sol.Value(grid), sol.Value(gen), sol.Value(battery), sol.Value(unserved))
	// Output:
	// status: optimal
	// cost: $132.50
	// grid 1.5 + gen 1.5 + battery 1.0 + unserved 0.0 MWh
}
