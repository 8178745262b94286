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
// controller solves P5 twice — once with the battery frozen, once with it
// free — and keeps the cheaper alternative after adding V·Cb to the
// battery-active objective. This is exact.
//
// # Two interchangeable P5 solvers
//
// P5 is solved either through the simplex substrate (internal/lp's
// revised simplex, mirroring the paper's "solve with linear programming,
// e.g. simplex") or through a closed-form merit-order solver that
// exploits P5's structure: a single balance node with per-leg linear
// costs, solvable by sorting source and sink legs and greedily matching
// negative-cost pairs. Property tests assert both solvers produce equal
// objectives; the analytic path is roughly two orders of magnitude
// faster (see the ablation benchmark).
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
