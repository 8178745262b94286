// Package core implements SmartDPSS, the paper's primary contribution: an
// online two-timescale Lyapunov (drift-plus-penalty) controller for a
// datacenter power supply system with long-term-ahead and real-time grid
// markets, on-site renewable production, a UPS battery, and a mix of
// delay-sensitive and delay-tolerant demand (Algorithm 1 of the paper).
//
// # Subproblems
//
// At each coarse slot t = kT the controller solves P4, choosing the
// long-term purchase gbef(t) to minimize
//
//	gbef(t) · [V·plt(t) − Q(t) − Y(t)]
//
// subject to covering the observed delay-sensitive deficit and the grid
// cap. At each fine slot τ it solves P5 over (grt, γ, brc, bdc, W):
//
//	grt(τ)·[V·prt(τ) − Q(t) − Y(t)]           (real-time purchase)
//	− sdt(τ)·[Q(t) + Y(t)]                     (backlog service, sdt = γQ)
//	+ [Q(t) + X(t) + Y(t)]·(brc(τ) − bdc(τ))   (battery pressure)
//	+ V·n(τ)·Cb + V·wW·W(τ)                    (UPS wear and waste)
//
// subject to the supply/demand balance (Eq. 4), the grid cap (Eq. 5),
// battery rate/level limits (Eqs. 7–8) and the service cap Sdtmax, using
// the queue states frozen at the interval start (the paper's Sec. IV-A
// approximation Q(τ) ≈ Q(t), X(τ) ≈ X(t), Y(τ) ≈ Y(t)).
//
// # Correction of printed sign typos
//
// The published P5 writes the service term as γ(τ)[Q(t)² − Q(t)Y(t)],
// i.e. +sdt·(Q − Y). Taken literally this *discourages* serving a large
// backlog, contradicting Lemma 3, the Qmax/Ymax bounds of Theorem 2 and
// the measured behaviour in Sec. VI. Re-deriving the T-slot
// drift-plus-penalty bound from the queue dynamics (Eqs. 2, 12, 15) gives
// the service weight −(Q(t) + Y(t))·sdt, which we implement. All other
// printed coefficients (purchases, battery, Theorem 2 bound formulas) are
// implemented exactly as published.
//
// # Exact handling of the UPS fixed charge
//
// The per-slot battery operation cost V·n(τ)·Cb is a fixed charge, which a
// plain LP cannot represent. Because n(τ) is a single binary per slot, the
// controller compares P5 with the battery free and with it frozen, and
// keeps the cheaper alternative after adding V·Cb to the battery-active
// objective, the frozen one on a tie. This is exact. The fleet arm runs
// one such pair per candidate unit.
//
// The merit-order solver builds and sorts the source and sink legs once
// per pair: the order depends on the leg costs alone, and freezing the
// battery only zeroes the capacities of its two legs. It runs the free
// greedy first, and the frozen greedy, on the same order, only when the
// free run left flow on a battery leg. Otherwise the frozen run would
// return the free result bit for bit. A battery leg with positive
// capacity and zero flow is never exhausted, so the free run's two
// pointers never step past it: it stays until a pair's cost test stops
// the loop, while the other side steps over legs that are already full.
// The frozen run steps past the empty leg instead. Every later pair it
// reaches pairs a leg sorted no earlier than the battery's with one that
// is full or sorted no earlier than the stopping pair's, and IEEE
// addition is monotone, so it moves no flow and the same cost test
// stops it. The check reads the raw leg flows for exact zero, not
// batteryUsed's 1e-12 threshold: a 1e-13 MWh battery flow still changes
// the frozen run. The result is then its own frozen alternative, and
// its total is its bare objective. FuzzSolveBestParity holds this
// kernel to two full solves. Over the default month the free optimum
// moves no battery in 69 % of the pairs without a fleet, and in 70 % of
// the 3.69 pairs per slot with BenchmarkFleetDispatch's fleet, so most
// pairs cost one greedy run.
//
// # One P5 solver and its test oracle
//
// The paper solves P4 and P5 "using classical linear programming
// approaches, e.g., simplex method" (Sec. IV-B Remark). The controller
// solves P5 exactly by merit order instead, exploiting its structure: a
// single balance node with per-leg linear costs, solvable by sorting
// source and sink legs and greedily matching negative-cost pairs (see
// p5Scratch.prepare). The simplex model of P5, on internal/lp's revised
// simplex, lives on in the tests as the oracle:
// TestPropertyAnalyticMatchesLP compares objectives on random instances,
// and TestSolveBestMatchesLPOnRecordedMonth compares every P5 pair of a
// default month, fixed charge included. BenchmarkAblationP5LP times the
// LP pair against BenchmarkSolveBest: the simplex pair costs 35 to 50
// times as much.
//
// # The plant
//
// Params embeds sim.Plant, the plant the session executes: P4 and P5
// plan against exactly the grid cap, supply and service caps, UPS and
// generation fleet that the engine bills. Params adds only the
// controller's own knobs (V, ε, T, Ddtmax and the ablation switches).
//
// The controller is deliberately single-site: it owns no global state, so
// a geo-distributed fleet (internal/geo) composes per-site Controller
// instances stepped concurrently, one per site, coupled only through the
// workload router upstream of each site's demand inputs.
package core
