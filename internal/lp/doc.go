// Package lp provides a bounded-variable two-phase simplex solver — a
// sparse revised simplex, the package's one solve path — written against
// the standard library only. This comment is the solver's contract: the
// formulation it accepts, the pivoting and anti-cycling rules it runs,
// the determinism it guarantees, and what it returns on numerical
// trouble. Every layer above — the per-slot P5 solver in internal/core,
// the interval/whole-horizon/receding-horizon LPs in internal/baseline —
// programs against this contract.
//
// The SmartDPSS paper solves its per-slot subproblems (P2, P4, P5) "using
// classical linear programming approaches, e.g., simplex method" with
// toolbox solvers such as Matlab's linprog. Go has no such solver in the
// standard library, so this package supplies the substrate.
//
// # Formulation
//
// The solver accepts minimization problems over bounded variables:
//
//	min  cᵀx
//	s.t. aᵢᵀx {≤,=,≥} bᵢ   for each constraint i
//	     lo ≤ x ≤ hi       element-wise (lo may be -Inf, hi may be +Inf)
//
// Internally the problem is rewritten to standard form (equalities over
// non-negative variables): finite lower bounds become shifts x = lo + y,
// a variable bounded only above becomes x = hi − y, free variables split
// into y⁺ − y⁻, and variables fixed at lo == hi are substituted out as
// constants. A finite upper bound on a shifted variable becomes the
// column bound y ≤ hi − lo, handled natively by the bounded-variable
// pivot loop, so the basis spans only the caller's constraint rows (the
// P5 model that internal/core's tests hold the merit-order solver to has
// 1 row where a row per bound would give 5). The constraint matrix is
// built in compressed sparse row and column form.
//
// This bounded-variable formulation is the only one. The row-per-bound
// formulation, which lowers each such bound to an explicit y ≤ hi − lo
// row after the constraints, survives only in this package's tests, as
// the rowForm oracle that the parity tests compare both formulations
// through.
//
// # Pivoting and anti-cycling
//
// The solver is a revised simplex that never materializes a tableau.
// Phase 1 runs composite pricing (bound-violation signs, no artificial
// variables) from a triangular crash basis; phase 2 prices the true
// costs. Entering columns are chosen by devex reference-framework
// pricing over rotating partial-pricing segments; when the objective
// fails to improve for 256 consecutive pivots the solver switches to
// Bland's rule (lowest eligible column), which guarantees termination
// on degenerate problems. The ratio test breaks ties by the smallest
// leaving column id within a window relative to the step length.
//
// Column bounds give the ratio test two additional limits: a basic
// variable reaching its own upper bound (it leaves the basis at that
// bound), and the entering variable reaching its upper bound first (a
// bound flip: the column changes bound and no basis change happens).
// Bound flips count against the pivot budget.
//
// Pricing reads an eligible set, a bitset of the columns that may enter
// (nonbasic, not fixed at zero, reduced cost past costTol = 1e-9 in the
// improving direction). Every write to a reduced cost or a column
// status updates its bit: the full recompute of the duals, the
// per-pivot update over the pivot row's support, and a bound flip. A
// pricing pass visits only the set bits, in column order, with the
// same segments, rotor, devex score and lowest-column tie-break as a
// scan of every column, so the set changes which columns are visited,
// never which one enters.
//
// Confirmation. Before any terminal status the solver refactorizes,
// recomputes the basic values and duals, and prices again (see Sparse
// kernels). In phase 2 that pricing treats a column whose fresh reduced
// cost lies within its own round-off,
//
//	|d_j| ≤ costTol·(1 + |c_j| + Σ_i |y_i·a_ij|),
//
// as priced out: it does not enter. Without the rule two columns at
// d ≈ −1.05e−9, just past the absolute costTol, took turns entering with
// real steps after each refresh; every step made progress, so the stall
// counter never reached Bland's rule, and every pivot cost a
// refactorization until the pivot budget ran out (a Lookahead(24)
// window LP at seed 2000007, and a cost-cut staircase LP in the fuzz
// corpus). Bland's rule alone would not stop it, since both columns stay
// eligible. The rule reads only the pricing right after a confirmation
// refresh, so a solve whose fresh pricing finds nothing, the usual case,
// cannot move. Over the paper, ext, provision, fleet and tune families
// at the seeds 1 + k·1,000,003 (k = 0…5), with geo and annual at seed 1
// (15,250 solves), that window was the only solve that priced again
// after a confirmation refresh.
//
// # Numerical trouble and the residual check
//
// Before an Optimal answer leaves Solver.Solve, its recovered values are
// checked against every bound and row of the caller's problem with the
// solver's own feasibility tolerance (1e-7), scaled by the magnitudes
// involved (Problem.feasible; the check allocates nothing). A point
// that fails the check is never returned as Optimal. On numerical
// trouble Solve returns an error instead of a status: ErrIterLimit when
// the pivot budget or the stall budget runs out, ErrNumerical for
// anything else — basic values that stop being finite, a phase 1 with no
// breakpoint, or an optimum that fails the check. Every caller in the
// repository handles the error: the per-interval and receding-horizon
// controllers degrade to an empty plan or a myopic decision, the
// whole-horizon and geo constructors return it, and internal/core's P5
// oracle fails the test that called it. Over the whole scenario set
// (paper, ext, provision, fleet, tune, geo and annual: 2,912 solves) no
// solve returned an error, and the worst scale-relative residual was
// 6e-13.
//
// # Determinism
//
// A solve is a pure function of the problem: no randomness, no
// time-dependence, no global state. Identical problems — same variables,
// bounds, costs, constraint order and term order — produce bit-identical
// pivot sequences, solutions and iteration counts, on every platform with
// IEEE-754 float64. The golden scenario suite leans on this: the
// OfflineOptimal benchmark replays staircase interval LPs whose optimal
// vertices the fig6v golden pins byte for byte.
//
// Equivalence between formulations and solvers is objective-level, not
// vertex-level: they return the same status and (to round-off) the same
// optimal objective, but on degenerate problems with alternate optima
// they may return different, equally optimal vertices. The interval LPs
// are such problems (serving a backlog earlier or later can be
// cost-neutral). Two changes re-baselined fig6v's offline mean delay at
// an unchanged 40.99 $/slot, each once and on purpose: the staircase
// interval LP instead of the chain one on row bounds (3.098 → 3.129),
// and this solver instead of the dense tableau that used to solve those
// interval LPs (3.129 → 3.097); bounded instead of row bounds alone
// measured 3.098 → 3.108. Equivalence is gated in the tests
// by brute-force vertex enumeration on random boxes, row-vs-bound parity
// through rowForm, parity against the tableau oracle below, interval and
// horizon parity against the chain-form oracles in internal/baseline,
// and the byte-identical golden suite.
//
// # No warm starts (negative result)
//
// Every solve starts cold. Re-installing the previous solve's optimal
// basis, with an in-place repair of slight primal infeasibility instead
// of a fresh phase 1, was built, measured and removed for two reasons
// recorded here so they are not re-learned: (1) at this problem scale
// the basis re-installation plus feasibility repair costs about as many
// pivots as the skipped phase 1 (720 warm against 707 cold over a week
// of interval LPs), and (2) these degenerate LPs have alternate optima,
// so a warm solve can land on a different vertex than the golden-pinned
// cold path. A remembered basis also records column membership only,
// not the nonbasic-at-upper-bound set, so it cannot seed a
// bounded-variable solve.
//
// # Start reuse
//
// What a Solver does keep is the cold start itself. The crash basis and
// its first factorization depend on the constraint matrix alone — its
// CSC arrays, which columns are slacks, and the row order the crash
// walks — never on costs, bounds or right-hand sides. Lookahead's
// receding windows repeat one matrix solve after solve with new data
// (747 of Lookahead(24)'s 775 solves over a month), so a Solver saves
// the crash basis and first factors of a matrix once two consecutive
// solves share its 64-bit fingerprint, and restores them, instead of
// running crash and factorize, after an exact compare of the CSC arrays
// and the crash's row order finds the same matrix bit for bit. That is
// a replay of the cold start the solve would compute, not a warm start:
// the solve then runs its own phase 1 and phase 2 from that basis,
// with fresh pricing state, so a reused Solver matches a fresh one bit
// for bit in values, objective and iteration count
// (TestSolverStartReuseMatchesFresh), and no golden moves. Saving only
// on a repeated fingerprint keeps one-off matrices (the whole-horizon
// and annual LPs) from copying their factors.
//
// # Sparse kernels
//
// A dense tableau costs O(rows·cols) per pivot and memory regardless of
// sparsity; at annual scale (8760 slots: ~70k columns, ~44k rows) one
// would need tens of gigabytes before the first pivot. The revised
// simplex works on the sparse matrix and a factored basis instead:
//
//   - The basis is held as an LU factorization computed by
//     Gilbert–Peierls sparse elimination with partial pivoting, columns
//     preordered by ascending nonzero count (a deterministic, cheap
//     approximation of Markowitz ordering). A rank-deficient basis is
//     patched in place with placeholder unit columns (never priced)
//     rather than failing.
//   - Pivots update the factorization through a product-form eta file;
//     the basis is refactorized from scratch after 64 etas or when the
//     accumulated eta fill exceeds 16 nonzeros per row (clamped below at
//     64 entries so tiny bases are not refactorized every few pivots),
//     whichever comes first, and the basic solution is recomputed from
//     the fresh factors to shed accumulated round-off.
//   - FTRAN and BTRAN are hyper-sparse: a Gilbert–Peierls reachability
//     DFS over the L and U adjacency (and per-position entry chains over
//     the eta file) computes the solution's nonzero pattern first, so the
//     numeric work is proportional to the pattern, not the basis size.
//     Past a density threshold (a quarter of the rows) each stage falls
//     back to its dense loop — correct either way, only the cost differs.
//   - Reduced costs and per-position feasibility signs are maintained
//     incrementally from each pivot's sparse delta (recomputed from
//     scratch at refactorizations, phase switches and staleness events).
//     Before any terminal status the solver refactorizes, rescans and
//     reprices once, so incremental drift cannot produce a wrong answer;
//     that pricing passes over reduced costs within their own round-off
//     (see Confirmation above).
//
// Whole-horizon solve time therefore grows near-linearly with the
// horizon on the staircase LPs: measured on the synthetic horizon
// family, 72 slots solve in ~11 ms and 1440 in ~0.9 s. The 8760-slot
// year took ~200 s on an earlier dense-vector revised simplex; on this
// one it is recorded at 9.62 s (BENCH_10.json's PR-9 baseline block) and
// at 19.86 s (its current block), against cmd/perf's 20 s wall gate.
// ROADMAP item 7 is the plan to halve it. The per-pivot cost splits
// between the eta-file stages and the rotating devex pricing scan (a
// fixed 1/32 fraction of the columns).
//
// # The tableau oracle (tests only)
//
// The dense two-phase tableau simplex that used to solve the small LPs
// lives on in this package's tests as the parity oracle. Its known
// defect — no scaling, no reinversion, no residual check, so on badly
// scaled problems it can report Optimal at an infeasible or suboptimal
// point (internal/baseline's TestIntervalCostCutSolvesVerified) — is why
// parity tests trust its Optimal only when its point passes
// Problem.feasible.
//
// # Memory model
//
// A Solver owns every working buffer (standard-form rewrite, LU factors,
// pricing state, solution vector) and reuses them across solves; long
// sequences of same-shape problems solve allocation-free once the
// buffers have grown. Problem.Reset rebuilds a model in place, reusing
// per-row term storage. The Solution returned by Solver.Solve borrows
// the solver's buffers and is valid only until the next solve;
// Problem.Minimize is the throwaway-solver convenience that detaches its
// values.
package lp
