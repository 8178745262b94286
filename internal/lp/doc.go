// Package lp provides a two-phase primal simplex solver for small and
// medium linear programs — a dense tableau by default, a sparse revised
// simplex behind Problem.SetSparse for large structured models — written
// against the standard library only. This comment is the solver's
// contract: the formulation it accepts, the pivoting and anti-cycling
// rules it runs, the determinism it guarantees, and the semantics of its
// capability switches (variable bounds, basis warm starts, sparsity).
// Every layer above — the per-slot P5 solver in internal/core, the
// interval/whole-horizon/receding-horizon LPs in internal/baseline —
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
// constants. What happens to a finite upper bound on a shifted variable
// depends on the bound mode:
//
//   - Row mode (the default): the bound is lowered to one explicit
//     y ≤ hi − lo tableau row. This is the historical formulation; its
//     pivot sequence is frozen and byte-pinned by the golden suite.
//   - Bounded mode (Problem.SetBounded): the bound is recorded as a
//     column bound and handled natively by the bounded-variable
//     (revised-bound) pivot loop. No row is emitted, shrinking the
//     tableau by one row per upper-bounded variable — about 40% on the
//     box-constrained interval LPs of this repository (for the default
//     T = 24 interval LP: 242 rows → 145; for the one-row P5 LP: 5 → 1).
//
// # Pivoting and anti-cycling
//
// Both modes run the same two-phase dense tableau simplex: phase 1
// minimizes the sum of artificial variables (infeasibility), phase 2 the
// true objective with artificial columns banned. Entering columns are
// chosen by Dantzig's rule (most negative reduced cost); when the active
// objective fails to improve for 256 consecutive pivots the solver
// switches permanently to Bland's rule, which guarantees termination on
// degenerate problems (Beale's cycling example is a regression test).
// The ratio test breaks ties by the smallest basis column.
//
// In bounded mode the ratio test admits two additional limits: a basic
// variable reaching its own upper bound (the leaving column is rewritten
// in terms of its complement ub − x before the pivot), and the entering
// variable reaching its upper bound first (a bound flip — the column is
// replaced by its complement everywhere and no basis change happens).
// Nonbasic-at-upper-bound variables are therefore always represented as
// at-zero complements, so the entering rule, Bland's rule and the stall
// detector need no at-upper special case. Bound flips strictly improve
// the active objective and count against the pivot budget.
//
// # Determinism
//
// A solve is a pure function of the problem: no randomness, no
// time-dependence, no global state. Identical problems — same variables,
// bounds, costs, constraint order and term order — produce bit-identical
// pivot sequences, solutions and iteration counts, on every platform with
// IEEE-754 float64. The golden scenario suite leans on this: the
// OfflineOptimal benchmark replays row-mode interval LPs whose optimal
// vertices are pinned byte for byte.
//
// Equivalence between the two modes is objective-level, not vertex-level:
// both return the same status and (to round-off) the same optimal
// objective, but on degenerate problems with alternate optima they may
// return different, equally optimal vertices — the bounded pivot path is
// shorter and visits different corners. Callers whose downstream output
// is byte-pinned to historical runs must stay in row mode; everyone else
// should prefer bounded mode for the smaller tableau. Equivalence is
// gated three ways in the tests: brute-force vertex enumeration on random
// boxes, row-vs-bound parity properties, and the byte-identical golden
// suite.
//
// # Warm starts (negative result)
//
// Solver.SolveWarm re-installs the previous solve's optimal basis when
// the next problem maps to the same standard-form shape, repairing slight
// primal infeasibility in place instead of redoing phase 1. The
// capability is correct and tested — and production does not use it, for
// two reasons measured in PR 4 and recorded here so they are not
// re-learned: (1) at this problem scale the basis re-installation plus
// feasibility repair costs about as many pivots as the skipped phase 1
// (707 vs 720 over a week of interval LPs), and (2) these degenerate LPs
// have alternate optima, so a warm solve can land on a different vertex
// than the golden-pinned cold path. Bounded-mode problems always solve
// cold: a remembered basis records column membership only, not the
// nonbasic-at-upper-bound set, so re-installing it could start from the
// wrong solution point; SolveWarm silently falls back to Solve.
//
// # Sparse revised simplex (Problem.SetSparse)
//
// The dense tableau costs O(rows·cols) per pivot and O(rows·cols) memory
// regardless of how sparse the model is; the whole-horizon staircase LPs
// of internal/baseline have a handful of nonzeros per row, so at annual
// scale (8760 slots: ~70k columns, ~44k rows) the tableau would need
// tens of gigabytes before the first pivot. Problem.SetSparse routes the
// solve through a revised simplex that never materializes the tableau:
//
//   - The standard-form constraint matrix is built directly in
//     compressed sparse row/column storage, skipping the dense arena.
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
//   - Phase 1 runs composite pricing (bound-violation signs, no
//     artificial variables) from a triangular crash basis. Entering
//     columns are chosen by devex reference-framework pricing over
//     rotating partial-pricing segments, with reduced costs maintained
//     incrementally from each pivot row (recomputed from scratch at
//     refactorizations, phase switches and staleness events) and the
//     same stall-triggered switch to Bland's rule as the dense path.
//     Feasibility is tracked incrementally too: per-position violation
//     signs updated from the pivot's sparse delta replace the
//     full-basis infeasibility scan, with scale-aware tolerances on this
//     path only (the dense tableau keeps its absolute, byte-pinned
//     windows). Before any terminal status is returned the solver
//     refactorizes, rescans and reprices once, so incremental drift can
//     never produce a wrong answer.
//
// Sparse solves reuse the Solver's arena/Reset memory model: all
// factorization and pricing buffers persist across solves, and the
// returned Solution borrows them exactly like a dense solve's.
//
// The equivalence contract matches bounded mode: same status, same
// optimal objective (the property/fuzz parity harness in this package
// gates dense-vs-sparse agreement to 1e-9 over randomized staircase and
// box LPs), but possibly a different equally-optimal vertex on
// degenerate problems — golden-pinned callers must stay dense. On any
// numerical trouble (singular bases beyond repair, stall limits, NaNs
// after refactorization) the solver transparently falls back to the
// dense tableau, so SetSparse can never change a result, only how fast
// it is computed. Determinism holds exactly as for the dense path:
// identical problems produce bit-identical pivot sequences and
// objectives.
//
// When is dense still the right choice? Below roughly a thousand
// variables the tableau's simplicity wins: the per-slot P5 LPs
// (internal/core) and the interval LPs stay dense, and the
// receding-horizon controller only switches to sparse for foresight
// windows of 24+ slots (baseline's sparseWindowSlots). With the
// hyper-sparse kernels the cost per pivot is proportional to the
// pivot's actual fill rather than the row count, so whole-horizon
// solve time grows near-linearly with the horizon on the staircase
// LPs: measured on the synthetic horizon family, 72 slots
// solve in ~11 ms, 720 in ~0.3 s, 1440 in ~0.9 s, and the full 8760-slot
// year in under 10 s — where the dense-vector revised simplex of PR 7
// took ~200 s (quadratic growth) and the dense tableau could not solve
// it at all. The remaining per-pivot cost splits between the eta-file
// stages (proportional to the touched etas' fill) and the rotating
// devex pricing scan (a fixed 1/32 fraction of the columns).
//
// # Memory model
//
// A Solver owns every working buffer (standard-form rewrite, tableau
// arena, solution vector) and reuses them across solves; long sequences
// of same-shape problems solve allocation-free once the buffers have
// grown. Problem.Reset rebuilds a model in place, reusing per-row term
// storage. The Solution returned by Solver.Solve borrows the solver's
// buffers and is valid only until the next solve; Problem.Minimize is
// the throwaway-solver convenience that detaches its values.
//
// The problems produced by SmartDPSS are tiny (2–6 variables per fine
// slot) or moderate (a few hundred variables for the per-day offline
// LP); a dense tableau is both simple and fast enough for those sizes.
// The whole-horizon and wide-window LPs are the exception and ride the
// sparse path above.
package lp
