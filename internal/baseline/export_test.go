package baseline

import "github.com/smartdpss/smartdpss/internal/trace"

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
