//! From-scratch linear-programming toolkit powering Gavel's scheduling policies.
//!
//! The Gavel paper expresses every scheduling policy as an optimization
//! problem: most are single linear programs (makespan among them: with
//! `t = 1/M` it is the max-min LP), finish-time fairness is a binary search
//! over LP feasibility problems, the cost policies are linear-fractional
//! programs, and hierarchical water filling reads its bottlenecked jobs
//! off each round LP's duals (the paper's Appendix A.1 states that step
//! as a MILP; `gavel-policies` keeps the MILP as a test oracle). This crate
//! provides the building blocks without any external solver dependency:
//!
//! - [`LpProblem`] — a builder for linear programs whose variables each
//!   have a finite lower bound (and optionally a finite upper one).
//! - [`revised`] — a sparse revised simplex (CSC matrix, LU-factorized
//!   basis with eta-file updates, BTRAN/FTRAN pricing), behind the two
//!   solve entry points: [`LpProblem::solve`] (cold) and
//!   [`PreparedLp::solve`] (warm-startable).
//! - [`simplex`] — the original dense two-phase tableau with Bland's-rule
//!   anti-cycling, retained as an independent oracle and reachable only
//!   as one ([`LpProblem::solve_dense`]).
//! - [`fractional`] — the Charnes–Cooper transform for maximizing a ratio of
//!   affine functions over a polyhedron.
//! - [`prepared`] — [`PreparedLp`], a problem lowered once, solved from
//!   an optional warm-start hint, and re-solved by patching costs,
//!   right-hand sides, bounds or one column.
//! - [`bisect`] — a bisection driver for sequence-of-LP policies
//!   (finish-time fairness) that returns its last feasible probe's witness.
//!
//! # Solver architecture: one lowering, dense vs revised
//!
//! [`LpProblem`] serves the LPs Gavel writes: time fractions and levels,
//! every variable with a finite lower bound (an infinite one is
//! [`SolverError::InvalidBounds`]). Its lowering to a sparse
//! [`simplex::StandardForm`] `min c'x, Ax {<=,>=,=} b, x >= 0` is one
//! shift per variable: standard column `i` is variable `i` minus its lower
//! bound. A constraint's terms are sorted, merged and stripped of exact
//! zeros when they are stored, so standard row `i` is constraint `i`'s
//! stored terms. A finite upper bound is one more row, `x' <= upper -
//! lower`, after the constraints; the policy LPs bound their variables
//! from below only, so they lower to exactly their constraints. Both
//! engines read the rows this one lowering writes.
//!
//! - **Revised (default).** [`revised`] is a two-phase primal simplex over
//!   a column-major sparse matrix with a factorized basis (sparse LU with
//!   partial pivoting plus a product-form eta file, refactorized at a
//!   fixed file length). Every column is bounded by zero only, so a
//!   nonbasic column rests at zero and the ratio test is one-sided.
//!   Per-iteration cost is `O(nnz)` — one BTRAN for dual prices, sparse
//!   dots for reduced costs, one FTRAN for the ratio test. This is what
//!   every policy LP and fractional transform runs on, and all they run
//!   on: a basis gone floating-point singular is the caller's
//!   [`SolverError::Numerical`] (a failed recompute, which the service
//!   counts and plans from the isolated split), never a silent re-solve on
//!   the dense tableau.
//! - **Dense (oracle).** [`simplex`] runs the original full-tableau
//!   two-phase method over the same rows, paying `O(m * width)` per pivot.
//!   It shares no linear algebra with the revised engine, so the
//!   differential tests pit the two against each other.
//!
//! Debug builds check every successful solve — cold, warm-continued,
//! dual-repaired, hinted or prepared — with a certificate instead of a
//! second engine: from the final basis's own duals, every nonbasic reduced
//! cost is nonnegative, every basic value is nonnegative (a basic
//! artificial zero) and the duality gap is closed. The point is then
//! checked against every stated bound and row, and the objective against
//! `Σ c_v x_v`. Neither check allocates; release builds run neither.
//!
//! # Warm starts and dual reoptimization
//!
//! A basis is named in problem terms: at most one [`BasisEntry`] per
//! constraint, a variable or a row's slack, every unnamed variable resting
//! at its lower bound. [`PreparedLp::solve`] takes such a list as its hint
//! and [`PreparedLp::basis`] reads the last optimum's basic columns back
//! the same way (not the slacks of bound rows, which are no constraints),
//! so a hint
//! may be harvested from a solve of a *structurally identical* problem
//! (coefficients, bounds and right-hand sides may drift) or written down
//! from the *shape* of the LP: `gavel-policies`' max-min fairness starts
//! both of its solves this way (the origin for `max t`, "every job
//! full-time on its fastest cell" for the refine pass) and so never runs
//! a phase 1. The solve completes the hint in its first factorization and
//! classifies the completed basis: still primal feasible, phase 2 resumes
//! from it; primal infeasible but dual feasible (a risen water-filling
//! floor, a raised lower bound), a dual simplex phase repairs it
//! ([`SolveStats::dual_pivots`]); neither, or a hint that does not fit (a
//! repeated entry among them), a silent cold start on a pivot budget of
//! its own ([`SolveStats::warm_falls_back`]). [`revised`] documents each
//! path and the one warm verdict accepted directly, an infeasibility
//! proof from the dual phase.
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
//! # Prepared LPs: lower once, re-solve by patching
//!
//! A [`PreparedLp`] owns the problem and its lowered instance, takes
//! patches to objective coefficients, right-hand sides, variable bounds
//! and the coefficients of one column, writes each into the instance
//! exactly as a fresh lowering would, and keeps the final basis of a solve
//! with its factorization for [`PreparedLp::basis`] and
//! [`PreparedLp::row_duals`], which prices the optimum's rows from it on
//! demand. [`LpProblem::solve`] and
//! [`PreparedLp::solve`] run the same solve body over a lowered instance
//! — one built for the call, one kept and patched — so a patched prepared
//! LP returns bit for bit what a fresh [`PreparedLp`] of the patched
//! problem would, and a fresh one solved without a hint what
//! [`LpProblem::solve`] would; patches that cannot be written in place (a
//! right-hand side changing sign, a bound patch to or from a finite upper
//! bound, a column patch of a variable with one, a column out of
//! constraint order or outgrowing its room, invalid input) make it
//! re-lower first. A one-off warm solve is a fresh [`PreparedLp`] solved
//! once.
//!
//! Consumers: `gavel-policies`' hierarchical water filling keeps one, the
//! round LP (floors and the level variable's column move each round; each
//! round starts from the last optimum with the level variable taken out,
//! a primal feasible hint the solver completes, and reads its row duals
//! to find the bottlenecked jobs); its max-min fairness keeps one per
//! recompute (the
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
pub use problem::{Cmp, ConstraintId, LpProblem, Sense, VarId};
pub use simplex::{LpSolution, SolveStats};
