package baseline

import (
	"github.com/smartdpss/smartdpss/internal/sim"
	"github.com/smartdpss/smartdpss/internal/trace"
)

// IntervalLP solves the interval LP OfflineOptimal plans the n slots
// from start with, entered with battery level b0 and backlog q0, and
// returns its objective and pivot count, so external tests can check a
// model they rebuild against the production one.
func IntervalLP(cfg Config, set *trace.Set, start, n int, b0, q0 float64) (objective float64, pivots int, err error) {
	var st lpState
	prob := st.problem()
	st.addStairBlock(prob, cfg, set, stairWindow{start: start, n: n, b0: b0, q0: q0}, nil)
	sol, err := st.solve(prob)
	return sol.Objective, sol.Iterations, err
}

// LookaheadFallbacks replays Lookahead(window) over set under the
// session configuration sc and counts the slots whose window LP erred,
// where PlanFine falls back to its myopic decision. It returns the
// replayed report as well.
func LookaheadFallbacks(cfg Config, sc sim.Config, set *trace.Set, window int) (int, *sim.Report, error) {
	l, err := NewLookahead(cfg, set, window)
	if err != nil {
		return 0, nil, err
	}
	c := &countingLookahead{Lookahead: l}
	rep, err := sim.Run(sc, set, c)
	return c.fallbacks, rep, err
}

// countingLookahead is a Lookahead that counts its myopic fallbacks.
type countingLookahead struct {
	*Lookahead
	fallbacks int
}

func (c *countingLookahead) PlanFine(obs *sim.FineObs) sim.Decision {
	dec, err := c.solveWindow(obs)
	if err != nil {
		c.fallbacks++
		return c.Lookahead.PlanFine(obs)
	}
	return dec
}
