//! From-scratch linear-programming toolkit powering Gavel's scheduling policies.
//!
//! The Gavel paper expresses every scheduling policy as an optimization
//! problem: most are single linear programs (makespan among them: with
//! `t = 1/M` it is the max-min LP), finish-time fairness is a binary search
//! over LP feasibility problems, the cost policies are linear-fractional
//! programs, and hierarchical water filling finds its bottlenecked jobs
//! with exact per-job LP probes (the paper's Appendix A.1 states that step
//! as a MILP; `gavel-policies` keeps the MILP as a test oracle). This crate
//! provides the building blocks without any external solver dependency:
//!
//! - [`LpProblem`] — a builder for linear programs with bounded variables.
//! - [`revised`] — a sparse revised simplex (CSC matrix, LU-factorized
//!   basis with eta-file updates, BTRAN/FTRAN pricing), used by
//!   [`LpProblem::solve`] and the warm-start entry point
//!   [`LpProblem::solve_warm`].
//! - [`simplex`] — the original dense two-phase tableau with Bland's-rule
//!   anti-cycling, retained as an independent oracle and reachable only
//!   as one ([`LpProblem::solve_dense`]).
//! - [`fractional`] — the Charnes–Cooper transform for maximizing a ratio of
//!   affine functions over a polyhedron.
//! - [`prepared`] — [`PreparedLp`], a problem lowered once and re-solved
//!   by patching costs, right-hand sides, bounds or one column.
//! - [`bisect`] — a bisection driver for sequence-of-LP policies
//!   (finish-time fairness).
//!
//! # Solver architecture: bounded variables, dense vs revised
//!
//! [`LpProblem`]'s lowering produces a sparse [`simplex::StandardForm`]
//! `min c'x, Ax {<=,>=,=} b, 0 <= x <= u` in which finite upper bounds
//! ride on *columns*, never as extra rows — the standard-form row count
//! equals the user-facing constraint count exactly
//! ([`LpProblem::num_standard_rows`]). That matters because the LPs that
//! dominate Gavel's runtime are exactly the bounded ones: probe/prepass
//! LPs carry per-job slack variables in `[0, 1]`.
//!
//! - **Revised (default).** [`revised`] is a *bounded-variable* two-phase
//!   primal simplex over a column-major sparse matrix with a factorized
//!   basis (sparse LU with partial pivoting plus a product-form eta file,
//!   refactorized at a fixed file length). Nonbasic variables rest at
//!   either bound, the ratio test is two-sided, and an entering variable
//!   whose own bound binds first simply *bound-flips* — no basis change at
//!   all. Per-iteration cost is `O(nnz)` — one BTRAN for dual prices,
//!   sparse dots for reduced costs, one FTRAN for the ratio test. This is
//!   what every policy LP and fractional transform runs on, and all they
//!   run on: a basis gone floating-point singular is the
//!   caller's [`SolverError::Numerical`] (a failed recompute, which the
//!   service counts and plans from the isolated split), never a silent
//!   re-solve on the dense tableau.
//! - **Dense (oracle).** [`simplex`] expands finite column bounds into
//!   explicit `<=` rows and runs the original full-tableau two-phase
//!   method, paying `O(m * width)` per pivot. It exists for differential
//!   testing: because it lowers bounds the *other* way, it is an
//!   independent check on the entire bounded-variable path. The property
//!   tests pit the two engines against each other, and setting
//!   `GAVEL_LP_CROSSCHECK=1` in debug builds re-solves every LP densely —
//!   cold, warm-continued, and dual-reoptimized solves alike — asserting
//!   the objectives agree and the returned point is feasible.
//!
//! # Warm starts and dual reoptimization
//!
//! [`LpProblem::solve_warm`] returns the optimal basis state (basic
//! columns plus nonbasic bound sides) as a [`WarmStart`] token alongside
//! the solution. Feeding that token into the next solve of a
//! *structurally identical* problem (same variable list and constraint
//! shapes; coefficients, bounds, and right-hand sides may drift) first
//! *completes* it: a hinted column that has become dependent on the others
//! is dropped, and a row left without a column gets its logical one (its
//! slack, its surplus, or on an equality row its artificial), all in the
//! factorization pass the solve starts with. A hint may therefore name
//! fewer columns than there are rows. The completed basis is classified
//! into one of three paths:
//!
//! 1. **Primal continuation.** The old basis is still primal feasible
//!    (e.g. only the objective moved, as in per-job probes within one
//!    round): phase 1 is skipped and phase 2 resumes from the old vertex —
//!    often zero pivots.
//! 2. **Dual reoptimization.** The old basis is primal *infeasible* but
//!    still *dual* feasible — the signature of a pure right-hand-side or
//!    bound change: a risen water-filling floor, a tightened bound. A
//!    dual simplex phase drives the violated basic
//!    variables back to their bounds in a handful of pivots
//!    ([`SolveStats::dual_pivots`]), then phase 2 polishes (usually a
//!    no-op).
//! 3. **Cold fallback.** A completed basis that is neither primal nor
//!    dual feasible, a hint that does not fit (more columns than rows, a
//!    column out of range or named twice), or a failure part-way along a
//!    warm path silently cold-starts on a full pivot budget of its own (the hinted
//!    attempt runs on a fraction of the limit, so a stalled hint cannot
//!    starve the cold solve; [`SolveStats::warm_falls_back`]). The one
//!    warm verdict accepted directly is an infeasibility *proof* from the
//!    dual phase (dual unboundedness from a validated dual-feasible
//!    basis); unbounded, iteration-limit, and numerical outcomes are
//!    never trusted warm; what the cold solve then returns is final.
//!
//! Hints are validated, never trusted, so a hint never affects the
//! feasibility/boundedness verdict or the optimal objective; the one
//! caveat is vertex selection — when an LP has multiple optimal solutions,
//! a warm solve may legitimately return a different optimal vertex. When
//! warm and cold solves finish at the same basis state the returned
//! values are *bit-identical*: extraction refactorizes the canonically
//! sorted basis, so values are a pure function of the final state, not of
//! the pivot path. That function is fixed down to the order of its
//! floating-point operations: the factorization stores `L` and `U` as flat
//! slabs and eliminates each column only with the earlier steps it
//! reaches ([`basis`]), yet performs exactly the operations, in exactly
//! the order, of the textbook loop over every earlier step — a unit test
//! keeps that loop as the reference and compares solves bit for bit. How
//! the engine stores and reuses its buffers is free to change; its
//! arithmetic is not.
//!
//! A hint need not be harvested from a previous solve. A caller that can
//! read a good vertex off the *shape* of its LP writes the basis down in
//! problem terms — at most one [`BasisEntry`] per constraint, a variable
//! or a row's slack — and [`PreparedLp::basis_hint`] turns it into the
//! same [`WarmStart`] token, with every unnamed column at its lower bound;
//! [`PreparedLp::basis_entries`] reads a solved basis's basic columns back
//! into those terms (not the bound each nonbasic column rests at).
//! `gavel-policies`' max-min fairness starts both of its solves
//! this way (the origin for `max t`, "every job full-time on its fastest
//! cell" for the refine pass) and so never runs a phase 1. Such a hint is
//! completed and classified like any other: a repeated column, or a
//! completed basis that is neither primal nor dual feasible, cold-starts.
//!
//! # Prepared LPs: lower once, re-solve by patching
//!
//! A warm start saves pivots, but [`LpProblem::solve_warm`] still
//! validates, lowers, builds the sparse matrix and factorizes the hinted
//! basis on every call. Callers that re-solve one LP *family* keep a
//! [`PreparedLp`] instead: it owns the problem and its lowered instance,
//! takes patches to objective coefficients, right-hand sides, variable
//! bounds and the coefficients of one column, writes each into the
//! instance exactly as a fresh lowering would, and keeps the final
//! factorization of one solve for the next. Both entry points run the
//! same solve body over a lowered instance — one built for the call, one
//! kept and patched — so a prepared solve returns bit for bit what
//! `solve_warm` on the patched problem would; patches that cannot be
//! written in place (a right-hand side changing sign, a bound changing
//! which ends are finite) make it re-lower first.
//!
//! Consumers: `gavel-policies`' hierarchical water filling keeps two —
//! the round LP (floors and the level variable's column move each round;
//! each round starts from the last optimum with the level variable taken
//! out, a primal feasible hint the solver completes) and the probe LP (the
//! prepass and every per-job probe are one LP under different cost
//! vectors, solved as a warm chain that never leaves primal
//! feasibility); its max-min fairness keeps one per recompute (the
//! refine pass is the `max t` LP with one bound and the costs patched;
//! the makespan policy is the same `max t` LP with `c_m = steps_m` and no
//! refine pass).
//!
//! Every solve runs on the calling thread.
//!
//! # Examples
//!
//! ```
//! use gavel_solver::{LpProblem, Sense, Cmp};
//!
//! // Maximize 3x + 2y subject to x + y <= 4, x <= 2, x,y >= 0.
//! let mut lp = LpProblem::new(Sense::Maximize);
//! let x = lp.add_var("x", 0.0, f64::INFINITY, 3.0);
//! let y = lp.add_var("y", 0.0, f64::INFINITY, 2.0);
//! lp.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
//! lp.add_constraint(&[(x, 1.0)], Cmp::Le, 2.0);
//! let sol = lp.solve().unwrap();
//! assert!((sol.objective - 10.0).abs() < 1e-6);
//! assert!((sol[x] - 2.0).abs() < 1e-6);
//! assert!((sol[y] - 2.0).abs() < 1e-6);
//! ```

pub mod basis;
pub mod bisect;
pub mod error;
pub mod fractional;
pub mod prepared;
pub mod problem;
pub mod revised;
pub mod simplex;
pub mod sparse;

pub use bisect::bisect_min;
pub use error::SolverError;
pub use fractional::{solve_fractional, FractionalObjective};
pub use prepared::{BasisEntry, PreparedLp};
pub use problem::{Cmp, ConstraintId, LpProblem, Sense, VarId, WarmStart};
pub use simplex::{LpSolution, SolveStats};
