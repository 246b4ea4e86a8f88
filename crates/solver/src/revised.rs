//! Sparse revised simplex — the default LP engine.
//!
//! Solves the same standard form as the dense tableau in
//! [`crate::simplex`], but never materializes the `(m + 1) x width`
//! tableau. Instead it keeps:
//!
//! - the constraint matrix (structural + slack + artificial columns) in
//!   CSC form ([`crate::sparse::CscMatrix`]),
//! - a factorized basis ([`crate::basis::Basis`]: sparse LU plus an eta
//!   file of product-form updates, refactorized at a fixed file length),
//! - the basic solution `x_B`, updated incrementally per pivot.
//!
//! Each iteration prices with reduced costs from one BTRAN (`Bᵀ y = c_B`)
//! and sparse column dot products, then runs one FTRAN (`B w = a_q`) for
//! the ratio test — `O(nnz)` per pivot instead of `O(m * width)`.
//!
//! An iteration allocates nothing. The solver owns its three length-`m`
//! vectors — the prices `y`, the row `rho` of `B⁻¹` the dual ratio test
//! reads, the FTRAN image `w` of the entering column — and overwrites them
//! in place; the basis solves in place against its own scratch, appends
//! to one eta slab, and refactorizes inside the buffers it already has
//! (see [`crate::basis`]). A solve's heap blocks are therefore a constant
//! plus the eta slab's doubling, whatever its pivot count.
//!
//! # Bounded variables
//!
//! Columns carry implicit bounds `0 <= x_j <= u_j` ([`StandardForm::
//! upper`]); finite upper bounds never become rows here. A nonbasic
//! variable rests at *either* bound (`at_upper` state), the ratio test is
//! two-sided (a basic variable can leave at its lower or its upper bound),
//! and an entering variable whose own bound is the tightest limit simply
//! *bound-flips* to the other bound — no basis change, no factorization
//! update, counted in [`SolveStats::bound_flips`]. During phase 2,
//! artificial columns are treated as fixed at zero (`[0, 0]` bounds),
//! which makes them inert: they can neither re-enter nor rise, so a
//! warm-started basis that kept an artificial basic at zero is safe.
//!
//! # Warm starts and the dual simplex phase
//!
//! [`solve_instance`] accepts an optional `(basis, at_upper)` hint —
//! typically the optimal state of a near-identical LP solved a moment ago
//! (Gavel's water-filling rounds and per-job probes). The hint is first
//! *completed*, in the one factorization pass that starts the solve
//! (`Basis::complete`): it may name fewer columns than there are rows,
//! or columns that depend on one another. The hinted columns are pivoted
//! sparsest first, the dependent ones skipped, and each row left without
//! a pivot gets its logical column — its slack, its surplus, or on an
//! equality row its artificial. Only a hint that does not fit (more
//! columns than rows, a column out of range or named twice) is dropped.
//! The completed basis is then classified, never trusted:
//!
//! - still **primal feasible** under the new data → phase 2 resumes from
//!   that vertex (often zero pivots);
//! - primal infeasible but **dual feasible** — the signature of a risen
//!   floor (RHS change) or a tightened variable bound, both of which
//!   leave reduced costs untouched → a **dual simplex**
//!   phase repairs primal feasibility in a handful of pivots
//!   ([`SolveStats::dual_pivots`]), then phase 2 polishes (usually a
//!   no-op);
//! - neither, or a hint that does not fit → silent cold start on a full
//!   pivot budget of its own ([`SolveStats::warm_falls_back`]).
//!
//! One verdict *is* accepted from the warm path: dual unboundedness
//! reached from a validated dual-feasible basis is a sound proof that the
//! LP is primal infeasible (phase 2 fixes artificials at zero, so the
//! extended system is exactly the real one), and is returned without a
//! cold re-derivation — a solve that is infeasible by design would
//! otherwise pay the dual phase *and* a full phase 1. Every other
//! warm-path failure (unbounded, iteration limit, numerical) still falls
//! back cold, and the hinted attempt runs on a fraction of the pivot limit
//! so that a stalled one leaves the cold solve its whole budget. A hint
//! therefore never changes the feasibility verdict or the optimal
//! objective, only the work done. Before extraction the basis is
//! refactorized and `x_B` recomputed from scratch, so the returned values
//! are a pure function of the final `(basis, at_upper)` state — warm and
//! cold solves that finish at the same basis return bit-identical
//! solutions.

use crate::basis::{Basis, NO_COLUMN};
use crate::error::SolverError;
use crate::problem::Cmp;
use crate::simplex::{SolveStats, StandardForm, DEGENERACY_THRESHOLD, FEAS_TOL, PIVOT_TOL, RC_TOL};
use crate::sparse::CscMatrix;

/// Result of a revised-simplex solve: structural values, objective, pivot
/// counters, and the final basis state (basic column per row plus the
/// nonbasic bound sides) for reuse as a warm-start hint.
#[derive(Debug, Clone)]
pub(crate) struct RevisedOutcome {
    pub x: Vec<f64>,
    pub objective: f64,
    pub stats: SolveStats,
    pub basis: Vec<usize>,
    pub at_upper: Vec<bool>,
}

/// The standard form with slack and artificial columns made explicit.
/// Crate-internal, cloneable and patchable (`b`, `costs`, `upper`, one
/// structural column at a time) so [`crate::PreparedLp`] can re-solve a
/// drifting LP without rebuilding the constraint matrix.
#[derive(Debug, Clone)]
pub(crate) struct Instance {
    /// `m x ntot` constraint matrix (structural, slack, artificial).
    a: CscMatrix,
    /// Nonnegative right-hand side.
    pub(crate) b: Vec<f64>,
    /// Phase-2 costs over all `ntot` columns.
    pub(crate) costs: Vec<f64>,
    /// Upper bounds over all `ntot` columns (slack/artificial: `+inf`;
    /// artificial columns are additionally clamped to zero in phase 2 via
    /// [`Solver::ub`]).
    pub(crate) upper: Vec<f64>,
    /// Structural column count.
    n: usize,
    /// First artificial column.
    art_start: usize,
    ntot: usize,
    m: usize,
    /// Initial (identity) basis: slack for `<=` rows, artificial otherwise.
    init_basis: Vec<usize>,
    /// Per row: its slack (`<=`) or surplus (`>=`) column; equality rows
    /// have none.
    slack_of: Vec<Option<usize>>,
}

impl Instance {
    /// Sparse `(row, coefficient)` nonzeros of structural column `j`, as
    /// stored (i.e. after negative-RHS row normalization).
    pub(crate) fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.a.col(j)
    }

    /// Total column count (structural, slack, artificial).
    pub(crate) fn ntot(&self) -> usize {
        self.ntot
    }

    /// The slack or surplus column of row `i`, if the row has one.
    pub(crate) fn slack_col(&self, i: usize) -> Option<usize> {
        self.slack_of[i]
    }

    /// The logical column a hint is completed with in row `i`: its slack
    /// (`<=`), its surplus (`>=`) or, on an equality row, its artificial.
    fn logical(&self, i: usize) -> usize {
        self.slack_of[i].unwrap_or(self.init_basis[i])
    }

    /// Rewrites structural column `j`; see [`CscMatrix::set_col`].
    pub(crate) fn set_col(&mut self, j: usize, entries: &[(usize, f64)]) -> bool {
        debug_assert!(j < self.n, "only structural columns are patchable");
        self.a.set_col(j, entries)
    }

    pub(crate) fn build(lp: &StandardForm) -> Instance {
        let m = lp.rows.len();
        let n = lp.ncols;
        debug_assert_eq!(lp.upper.len(), n, "upper bounds must cover all columns");
        let mut n_slack = 0usize;
        let mut n_art = 0usize;
        for (_, cmp, rhs) in &lp.rows {
            match effective_cmp(*cmp, *rhs) {
                Cmp::Le => n_slack += 1,
                Cmp::Ge => {
                    n_slack += 1;
                    n_art += 1;
                }
                Cmp::Eq => n_art += 1,
            }
        }
        let art_start = n + n_slack;
        let ntot = art_start + n_art;

        // Column sizes first (one entry per term, one per slack and
        // artificial column), then every entry written straight into
        // place: rows are visited in order, so each column's entries land
        // in ascending row order, and `lower` has already merged
        // duplicate terms and dropped zeros.
        let mut col_ptr = vec![0usize; ntot + 1];
        for (terms, _, _) in &lp.rows {
            for &(j, _) in terms {
                col_ptr[j + 1] += 1;
            }
        }
        col_ptr[n + 1..].fill(1);
        for j in 0..ntot {
            col_ptr[j + 1] += col_ptr[j];
        }
        let mut next = col_ptr[..ntot].to_vec();
        let mut row_idx = vec![0usize; col_ptr[ntot]];
        let mut values = vec![0.0f64; col_ptr[ntot]];
        let mut put = |j: usize, i: usize, v: f64| {
            row_idx[next[j]] = i;
            values[next[j]] = v;
            next[j] += 1;
        };
        let mut b = Vec::with_capacity(m);
        let mut init_basis = Vec::with_capacity(m);
        let mut slack_of = vec![None; m];
        let mut slack_cursor = n;
        let mut art_cursor = art_start;
        for (i, (terms, cmp, rhs)) in lp.rows.iter().enumerate() {
            let sgn = if *rhs < 0.0 { -1.0 } else { 1.0 };
            for &(j, c) in terms {
                put(j, i, sgn * c);
            }
            b.push(sgn * rhs);
            match effective_cmp(*cmp, *rhs) {
                Cmp::Le => {
                    put(slack_cursor, i, 1.0);
                    init_basis.push(slack_cursor);
                    slack_of[i] = Some(slack_cursor);
                    slack_cursor += 1;
                }
                Cmp::Ge => {
                    put(slack_cursor, i, -1.0);
                    slack_of[i] = Some(slack_cursor);
                    slack_cursor += 1;
                    put(art_cursor, i, 1.0);
                    init_basis.push(art_cursor);
                    art_cursor += 1;
                }
                Cmp::Eq => {
                    put(art_cursor, i, 1.0);
                    init_basis.push(art_cursor);
                    art_cursor += 1;
                }
            }
        }
        let mut costs = vec![0.0; ntot];
        costs[..n].copy_from_slice(&lp.costs);
        let mut upper = vec![f64::INFINITY; ntot];
        upper[..n].copy_from_slice(&lp.upper);
        Instance {
            a: CscMatrix::from_parts(m, col_ptr, row_idx, values),
            b,
            costs,
            upper,
            n,
            art_start,
            ntot,
            m,
            init_basis,
            slack_of,
        }
    }
}

/// RHS normalization flips the comparison when the row is negated.
fn effective_cmp(cmp: Cmp, rhs: f64) -> Cmp {
    if rhs < 0.0 {
        match cmp {
            Cmp::Le => Cmp::Ge,
            Cmp::Ge => Cmp::Le,
            Cmp::Eq => Cmp::Eq,
        }
    } else {
        cmp
    }
}

/// The factorization a solve finished with, kept so the next solve of the
/// same matrix can start from it: hinted with exactly `basis`, it skips
/// its first factorization. Factorizing is a pure function of the matrix
/// and the (canonically sorted) basis, so reuse never changes a result.
#[derive(Debug, Clone)]
pub(crate) struct KeptLu {
    basis: Vec<usize>,
    fac: Basis,
}

/// Solves a standard-form LP, built fresh or kept and patched by a
/// [`crate::PreparedLp`], with the revised simplex. `hint` is an optional
/// warm-start state `(basis columns, nonbasic at-upper flags)`; see the
/// module docs for how hints are completed and classified. Hints that do
/// not fit or stay unusable fall back to a cold start. `kept` carries the
/// final factorization from one solve to the next; the caller clears it
/// whenever it changes the matrix. Errors carry the pivot counters spent
/// reaching the verdict so drivers that aggregate over many solves can
/// still account for the work.
pub(crate) fn solve_instance(
    inst: &Instance,
    hint: Option<(&[usize], &[bool])>,
    kept: &mut Option<KeptLu>,
) -> Result<RevisedOutcome, (SolverError, SolveStats)> {
    let mut spent = SolveStats::default();
    if let Some((hint_basis, hint_at_upper)) = hint {
        // Assume fallback; on success the warm solver's own stats (which
        // carry `warm_hits = 1` instead) are returned and `spent` is
        // dropped.
        spent.warm_falls_back = 1;
        if let Some(mut solver) = Solver::from_hint(inst, hint_basis, hint_at_upper, kept.take()) {
            if solver.primal_feasible() {
                match solver.phase2() {
                    Ok(()) => {
                        solver.stats.warm_hits = 1;
                        return solver.extract(kept);
                    }
                    // A failure along the warm phase-2 path (including an
                    // unbounded verdict, which is not authoritative from a
                    // hinted basis) invalidates only the hint, not the
                    // problem: retry cold.
                    Err(_) => spent.absorb(&solver.stats),
                }
            } else if solver.dual_feasible() {
                match solver.dual_phase().and_then(|()| solver.phase2()) {
                    Ok(()) => {
                        solver.stats.warm_hits = 1;
                        return solver.extract(kept);
                    }
                    // Dual unboundedness from a basis that was *validated*
                    // dual feasible is a sound infeasibility proof for the
                    // bounded LP (phase 2 treats artificials as fixed at
                    // zero, so the extended system is exactly the real
                    // one): no violated row can be repaired by any column.
                    // Re-deriving the verdict cold would double the work on
                    // exactly the solves that are infeasible by design.
                    // The proof is a warm hit: the hint did its job.
                    Err(SolverError::Infeasible) => {
                        solver.stats.warm_hits = 1;
                        return Err((SolverError::Infeasible, solver.stats));
                    }
                    // Other failures (iteration limit, numerical) fall back
                    // cold as above — those verdicts are not authoritative.
                    Err(_) => spent.absorb(&solver.stats),
                }
            }
            // Neither primal nor dual feasible: the hint carries no usable
            // information, reoptimize from scratch (no pivots were spent).
        }
    }
    // The cold solve reports the failed warm attempt's pivots with its own
    // but runs on a full budget of its own: a hint that stalled must not
    // turn a solvable LP into an iteration-limit error.
    let mut solver = match Solver::cold(inst) {
        Ok(solver) => solver,
        Err(e) => return Err((e, spent)),
    };
    solver.iter_limit += work(&spent);
    solver.stats = spent;
    if let Err(e) = solver.phase1().and_then(|()| solver.phase2()) {
        return Err((e, solver.stats));
    }
    solver.extract(kept)
}

/// The pivot limit of one solve attempt, in [`work`] units.
fn auto_limit(inst: &Instance) -> usize {
    200 * (inst.m + inst.ntot + 1) + 20_000
}

/// A hinted attempt gets this fraction of [`auto_limit`]: a warm start
/// that needs more has stopped being one, and what it spends before the
/// cold solve takes over is pure loss.
const WARM_SHARE: usize = 16;

/// Work an attempt has spent against its limit: bound flips move no
/// basis column but cost a ratio test like any pivot.
fn work(stats: &SolveStats) -> usize {
    stats.total_pivots() + stats.bound_flips
}

/// Outcome of the bounded ratio test for one entering column.
enum Step {
    /// The entering column's own bound is the tightest limit: it jumps to
    /// its other bound, no basis change.
    Flip(f64),
    /// A basic variable blocks first and leaves the basis at the recorded
    /// bound side.
    Pivot {
        slot: usize,
        t: f64,
        leave_at_upper: bool,
    },
}

struct Solver<'a> {
    inst: &'a Instance,
    /// Cap on [`work`]; past it the attempt ends in
    /// [`SolverError::IterationLimit`].
    iter_limit: usize,
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    /// Nonbasic bound side per column (`true` = resting at its upper
    /// bound). Always `false` for basic columns and columns without a
    /// finite upper bound.
    at_upper: Vec<bool>,
    fac: Basis,
    /// `fac` completed a partial or singular hint, so its factor columns
    /// are not in the canonical order [`Solver::extract`] reads values in.
    completed: bool,
    x_b: Vec<f64>,
    /// Dual prices `B⁻ᵀ c_B` from the last [`Solver::prices`].
    y: Vec<f64>,
    /// Row `slot` of `B⁻¹` from the last [`Solver::inverse_row`].
    rho: Vec<f64>,
    /// FTRAN image `B⁻¹ a_j` from the last [`Solver::ftran_col`].
    w: Vec<f64>,
    stats: SolveStats,
    bland: bool,
    degenerate_run: usize,
}

impl<'a> Solver<'a> {
    /// The identity start basis: each row's slack or artificial column.
    /// Its factorization cannot fail on a well-formed instance; if it
    /// does, the solve reports [`SolverError::Numerical`].
    fn cold(inst: &'a Instance) -> Result<Solver<'a>, SolverError> {
        let basis = inst.init_basis.clone();
        let fac =
            Basis::factorize(&inst.a, &basis, PIVOT_TOL).ok_or_else(|| SolverError::Numerical {
                context: "identity start basis is singular".into(),
            })?;
        let mut in_basis = vec![false; inst.ntot];
        for &c in &basis {
            in_basis[c] = true;
        }
        Ok(Solver {
            inst,
            iter_limit: auto_limit(inst),
            x_b: inst.b.clone(),
            basis,
            in_basis,
            at_upper: vec![false; inst.ntot],
            fac,
            completed: false,
            y: vec![0.0; inst.m],
            rho: vec![0.0; inst.m],
            w: vec![0.0; inst.m],
            stats: SolveStats::default(),
            bland: false,
            degenerate_run: 0,
        })
    }

    /// Builds a solver from a warm-start state: at most one column per row,
    /// none named twice, and a bound side per column. The hinted columns
    /// are factorized and completed in one pass ([`Basis::complete`]): a
    /// column dependent on the others is dropped, and each row left without
    /// one gets its logical column. `None` only for a state that does not
    /// fit the instance. Feasibility is *not* checked here — the caller
    /// classifies the completed basis as primal feasible, dual feasible, or
    /// unusable.
    fn from_hint(
        inst: &'a Instance,
        hint_basis: &[usize],
        hint_at_upper: &[bool],
        kept: Option<KeptLu>,
    ) -> Option<Solver<'a>> {
        if hint_basis.len() > inst.m || hint_at_upper.len() != inst.ntot {
            return None;
        }
        let mut in_basis = vec![false; inst.ntot];
        for &c in hint_basis {
            if c >= inst.ntot || in_basis[c] {
                return None; // Out of range or repeated column.
            }
            in_basis[c] = true;
        }
        let mut basis = Vec::with_capacity(inst.m);
        basis.extend_from_slice(hint_basis);
        let (fac, completed) = match kept {
            Some(kept) if kept.basis == hint_basis => (kept.fac, false),
            _ => {
                basis.resize(inst.m, NO_COLUMN);
                let logical = |row| inst.logical(row);
                let (fac, added) = Basis::complete(&inst.a, &mut basis, logical, PIVOT_TOL);
                if added > 0 {
                    in_basis.fill(false);
                    for &c in &basis {
                        in_basis[c] = true;
                    }
                }
                (fac, added > 0)
            }
        };
        // Sanitize the bound sides: only nonbasic, non-artificial columns
        // with a finite upper bound may rest at it.
        let mut at_upper = vec![false; inst.ntot];
        for (j, flag) in at_upper.iter_mut().enumerate() {
            *flag =
                hint_at_upper[j] && !in_basis[j] && j < inst.art_start && inst.upper[j].is_finite();
        }
        let mut solver = Solver {
            inst,
            iter_limit: auto_limit(inst) / WARM_SHARE,
            basis,
            in_basis,
            at_upper,
            fac,
            completed,
            x_b: vec![0.0; inst.m],
            y: vec![0.0; inst.m],
            rho: vec![0.0; inst.m],
            w: vec![0.0; inst.m],
            stats: SolveStats::default(),
            bland: false,
            degenerate_run: 0,
        };
        solver.recompute_xb();
        Some(solver)
    }

    /// Effective upper bound of a column: in phase 2 artificial columns
    /// are fixed at zero, which bans re-entry and caps any basic
    /// artificial so it can never rise above zero.
    fn ub(&self, col: usize, phase: u8) -> f64 {
        if phase == 2 && col >= self.inst.art_start {
            0.0
        } else {
            self.inst.upper[col]
        }
    }

    /// Whether every basic variable sits within its (phase-2) bounds.
    fn primal_feasible(&self) -> bool {
        self.basis
            .iter()
            .zip(&self.x_b)
            .all(|(&c, &v)| v >= -FEAS_TOL && v <= self.ub(c, 2) + FEAS_TOL)
    }

    /// Whether every movable nonbasic column's reduced cost has the
    /// optimality sign for its bound side (at lower: `d >= 0`, at upper:
    /// `d <= 0`), i.e. the basis is dual feasible for the phase-2 costs.
    fn dual_feasible(&mut self) -> bool {
        const DTOL: f64 = 1e-7;
        let inst = self.inst;
        self.prices(&inst.costs);
        for j in 0..inst.art_start {
            if self.in_basis[j] || self.ub(j, 2) <= 0.0 {
                continue; // Basic or fixed columns carry no dual condition.
            }
            let d = inst.costs[j] - inst.a.col_dot(j, &self.y);
            if self.at_upper[j] {
                if d > DTOL {
                    return false;
                }
            } else if d < -DTOL {
                return false;
            }
        }
        true
    }

    /// Dual prices `y = B⁻ᵀ c_B` for the given cost vector, into `y`.
    fn prices(&mut self, costs: &[f64]) {
        for (yi, &c) in self.y.iter_mut().zip(&self.basis) {
            *yi = costs[c];
        }
        self.fac.btran(&mut self.y);
    }

    /// Row `slot` of `B⁻¹`, into `rho`: `rho · a_j = (B⁻¹ a_j)[slot]`.
    fn inverse_row(&mut self, slot: usize) {
        self.rho.fill(0.0);
        self.rho[slot] = 1.0;
        self.fac.btran(&mut self.rho);
    }

    /// Phase 1: minimize the sum of artificial variables from the identity
    /// start basis.
    fn phase1(&mut self) -> Result<(), SolverError> {
        if self.inst.art_start == self.inst.ntot {
            return Ok(()); // All-slack basis is already feasible.
        }
        let mut costs1 = vec![0.0; self.inst.ntot];
        for c in costs1[self.inst.art_start..].iter_mut() {
            *c = 1.0;
        }
        self.pivot_loop(&costs1, 1)?;
        let infeas: f64 = self
            .basis
            .iter()
            .zip(&self.x_b)
            .filter(|&(&c, _)| c >= self.inst.art_start)
            .map(|(_, &v)| v)
            .sum();
        if infeas > FEAS_TOL {
            return Err(SolverError::Infeasible);
        }
        self.expel_artificials()
    }

    /// Phase 2: minimize the real objective; artificials are fixed at zero.
    fn phase2(&mut self) -> Result<(), SolverError> {
        let inst = self.inst;
        self.pivot_loop(&inst.costs, 2)
    }

    /// Pivots artificial variables still basic at zero out of the basis
    /// where a nonzero pivot element exists; rows without one are redundant
    /// and keep their artificial basic at zero (it can never rise, because
    /// that row of `B⁻¹A` is zero across all non-artificial columns).
    fn expel_artificials(&mut self) -> Result<(), SolverError> {
        for slot in 0..self.inst.m {
            if self.basis[slot] < self.inst.art_start {
                continue;
            }
            self.inverse_row(slot);
            let entering = (0..self.inst.art_start).find(|&j| {
                !self.in_basis[j] && self.inst.a.col_dot(j, &self.rho).abs() > PIVOT_TOL
            });
            if let Some(j) = entering {
                self.ftran_col(j);
                let w = &self.w;
                if w[slot].abs() > PIVOT_TOL {
                    // Zero-movement swap: the leaving artificial sits at
                    // (numerically) zero, so the entering column keeps its
                    // current value regardless of bound side.
                    let dir = if self.at_upper[j] { -1.0 } else { 1.0 };
                    let t = if self.x_b[slot].abs() <= 1e-12 {
                        0.0
                    } else {
                        (self.x_b[slot] / (dir * w[slot])).max(0.0)
                    };
                    self.apply_pivot(slot, j, dir, t, false)?;
                }
            }
        }
        Ok(())
    }

    /// Runs primal pivots until no entering column remains.
    fn pivot_loop(&mut self, costs: &[f64], phase: u8) -> Result<(), SolverError> {
        loop {
            if work(&self.stats) > self.iter_limit {
                return Err(SolverError::IterationLimit {
                    pivots: self.stats.total_pivots(),
                });
            }
            let Some((col, dir)) = self.choose_entering(costs, phase) else {
                return Ok(());
            };
            self.ftran_col(col);
            let Some(step) = self.choose_step(dir, phase, self.ub(col, phase)) else {
                // Mirrors the dense engine: phase 1 is bounded below by
                // zero, so "unbounded" there means numerical trouble;
                // callers treat both as hard errors.
                return Err(SolverError::Unbounded);
            };
            let t = match step {
                Step::Flip(t) => {
                    for (xi, &wi) in self.x_b.iter_mut().zip(&self.w) {
                        *xi -= dir * t * wi;
                    }
                    self.at_upper[col] = !self.at_upper[col];
                    self.stats.bound_flips += 1;
                    t
                }
                Step::Pivot {
                    slot,
                    t,
                    leave_at_upper,
                } => {
                    // Stability guard: a barely-eligible pivot element after
                    // a run of eta updates is usually accumulated error, not
                    // a real near-degenerate column. Refactorize and redo
                    // the iteration with exact factors before committing.
                    if self.w[slot].abs() < 1e-7 && self.fac.has_updates() {
                        self.refactorize()?;
                        continue;
                    }
                    self.apply_pivot(slot, col, dir, t, leave_at_upper)?;
                    if phase == 1 {
                        self.stats.pivots_phase1 += 1;
                    } else {
                        self.stats.pivots_phase2 += 1;
                    }
                    t
                }
            };
            if t <= PIVOT_TOL {
                self.degenerate_run += 1;
                if self.degenerate_run >= DEGENERACY_THRESHOLD {
                    self.bland = true;
                }
            } else {
                self.degenerate_run = 0;
            }
        }
    }

    /// Dantzig (largest reduced-cost violation) or, once cycling is
    /// suspected, Bland (lowest index). Returns the entering column and its
    /// movement direction: `+1` rising from its lower bound, `-1` falling
    /// from its upper bound. Artificial and fixed columns never enter.
    fn choose_entering(&mut self, costs: &[f64], phase: u8) -> Option<(usize, f64)> {
        self.prices(costs);
        let limit = self.inst.art_start;
        let mut best: Option<(usize, f64)> = None;
        let mut best_viol = RC_TOL;
        for j in 0..limit {
            if self.in_basis[j] || self.ub(j, phase) <= 0.0 {
                continue;
            }
            let rc = costs[j] - self.inst.a.col_dot(j, &self.y);
            let (viol, dir) = if self.at_upper[j] {
                (rc, -1.0) // Profitable to decrease from the upper bound.
            } else {
                (-rc, 1.0) // Profitable to increase from the lower bound.
            };
            if viol > best_viol {
                if self.bland {
                    return Some((j, dir));
                }
                best_viol = viol;
                best = Some((j, dir));
            }
        }
        best
    }

    /// Two-sided ratio test over `w = B⁻¹ a_q`: basic variables may block
    /// at either bound, and the entering column's own bound (`u_enter`)
    /// competes as a bound flip. Returns `None` when no limit exists
    /// (unbounded ray).
    fn choose_step(&self, dir: f64, phase: u8, u_enter: f64) -> Option<Step> {
        let w = &self.w;
        // (slot, ratio, leave_at_upper, |pivot element|)
        let mut best: Option<(usize, f64, bool, f64)> = None;
        for i in 0..self.inst.m {
            // Rate of change of x_B[i] per unit of entering movement.
            let delta = -dir * w[i];
            let (ratio, leave_at_upper) = if delta < -PIVOT_TOL {
                // Decreasing toward its lower bound (zero).
                ((self.x_b[i] / -delta).max(0.0), false)
            } else if delta > PIVOT_TOL {
                let ubi = self.ub(self.basis[i], phase);
                if !ubi.is_finite() {
                    continue;
                }
                // Increasing toward its upper bound.
                (((ubi - self.x_b[i]) / delta).max(0.0), true)
            } else {
                continue;
            };
            let better = match best {
                None => true,
                Some((bslot, bratio, _, bpivot)) => {
                    let tol = 1e-10 * (1.0 + bratio.abs());
                    if ratio < bratio - tol {
                        true
                    } else if (ratio - bratio).abs() <= tol {
                        if self.bland {
                            self.basis[i] < self.basis[bslot]
                        } else {
                            w[i].abs() > bpivot
                        }
                    } else {
                        false
                    }
                }
            };
            if better {
                best = Some((i, ratio, leave_at_upper, w[i].abs()));
            }
        }
        match best {
            Some((slot, t, leave_at_upper, _)) => {
                if u_enter.is_finite() && u_enter <= t {
                    Some(Step::Flip(u_enter))
                } else {
                    Some(Step::Pivot {
                        slot,
                        t,
                        leave_at_upper,
                    })
                }
            }
            None => u_enter.is_finite().then_some(Step::Flip(u_enter)),
        }
    }

    /// Dual simplex phase: from a dual-feasible basis, repeatedly drive the
    /// most bound-violating basic variable to the bound it violates,
    /// choosing the entering column by the dual ratio test so reduced costs
    /// keep their optimality signs. Terminates at primal feasibility (then
    /// phase 2 finishes, usually pivot-free) or proves the LP infeasible
    /// (dual unbounded) — though callers on the warm path re-derive that
    /// verdict cold.
    fn dual_phase(&mut self) -> Result<(), SolverError> {
        let costs = &self.inst.costs;
        loop {
            if work(&self.stats) > self.iter_limit {
                return Err(SolverError::IterationLimit {
                    pivots: self.stats.total_pivots(),
                });
            }
            // Leaving: the most bound-violating basic variable (first one
            // under Bland).
            let mut leave: Option<(usize, f64, bool)> = None;
            for i in 0..self.inst.m {
                let v = self.x_b[i];
                let ubi = self.ub(self.basis[i], 2);
                let (viol, above) = if v < -FEAS_TOL {
                    (-v, false)
                } else if v > ubi + FEAS_TOL {
                    (v - ubi, true)
                } else {
                    continue;
                };
                let better = match leave {
                    None => true,
                    Some((_, best, _)) => !self.bland && viol > best,
                };
                if better {
                    leave = Some((i, viol, above));
                }
            }
            let Some((r, _, above)) = leave else {
                return Ok(()); // Primal feasible: dual reoptimization done.
            };
            self.prices(costs);
            self.inverse_row(r);
            // Entering: minimum dual ratio |d_j| / |alpha_j| over columns
            // whose movement pushes x_B[r] back toward the violated bound.
            let mut best: Option<(usize, f64, f64, f64)> = None; // (j, ratio, |alpha|, dir)
            for j in 0..self.inst.art_start {
                if self.in_basis[j] || self.ub(j, 2) <= 0.0 {
                    continue;
                }
                // One pass over the column prices it against both vectors.
                let (alpha, ay) = self.inst.a.col_dot2(j, &self.rho, &self.y);
                if alpha.abs() <= PIVOT_TOL {
                    continue;
                }
                let dir = if self.at_upper[j] { -1.0 } else { 1.0 };
                // x_B[r] moves by `-dir * alpha` per unit step; it must
                // move down when above its upper bound, up when below zero.
                let movement = -dir * alpha;
                if (above && movement >= 0.0) || (!above && movement <= 0.0) {
                    continue;
                }
                let d = costs[j] - ay;
                let dres = if self.at_upper[j] {
                    (-d).max(0.0)
                } else {
                    d.max(0.0)
                };
                let ratio = dres / alpha.abs();
                let better = match best {
                    None => true,
                    Some((bj, bratio, balpha, _)) => {
                        let tol = 1e-10 * (1.0 + bratio.abs());
                        if ratio < bratio - tol {
                            true
                        } else if (ratio - bratio).abs() <= tol {
                            if self.bland {
                                j < bj
                            } else {
                                alpha.abs() > balpha
                            }
                        } else {
                            false
                        }
                    }
                };
                if better {
                    best = Some((j, ratio, alpha.abs(), dir));
                }
            }
            let Some((q, ratio, _, dir)) = best else {
                // Dual unbounded: no column can repair the violated row, so
                // the LP is primal infeasible.
                return Err(SolverError::Infeasible);
            };
            self.ftran_col(q);
            let w_r = self.w[r];
            if w_r.abs() < 1e-7 && self.fac.has_updates() {
                self.refactorize()?;
                continue;
            }
            if w_r.abs() <= PIVOT_TOL {
                return Err(SolverError::Numerical {
                    context: "dual pivot element vanished after refactorization".into(),
                });
            }
            // Step length that lands x_B[r] exactly on its violated bound.
            let target = if above {
                self.ub(self.basis[r], 2)
            } else {
                0.0
            };
            let t = ((self.x_b[r] - target) / (dir * w_r)).max(0.0);
            self.apply_pivot(r, q, dir, t, above)?;
            self.stats.dual_pivots += 1;
            if ratio <= RC_TOL {
                self.degenerate_run += 1;
                if self.degenerate_run >= DEGENERACY_THRESHOLD {
                    self.bland = true;
                }
            } else {
                self.degenerate_run = 0;
            }
        }
    }

    /// FTRAN of column `j` of the constraint matrix, into `w`.
    fn ftran_col(&mut self, j: usize) {
        self.w.fill(0.0);
        for (r, v) in self.inst.a.col(j) {
            self.w[r] += v;
        }
        self.fac.ftran(&mut self.w);
    }

    /// Replaces the basis column at `slot` by `col`, whose FTRAN image is
    /// in `w`, entering with step `t` in direction `dir`, updating `x_B`,
    /// the bound-side flags, and the factorization (refactorizing when the
    /// eta file is full or the product-form update is rejected).
    fn apply_pivot(
        &mut self,
        slot: usize,
        col: usize,
        dir: f64,
        t: f64,
        leave_at_upper: bool,
    ) -> Result<(), SolverError> {
        for (xi, &wi) in self.x_b.iter_mut().zip(&self.w) {
            *xi -= dir * t * wi;
        }
        // The entering column's new basic value, measured from the bound it
        // left. (Entering from the upper bound implies that bound is
        // finite.)
        let enter_val = if dir > 0.0 {
            t
        } else {
            self.inst.upper[col] - t
        };
        let leaving = self.basis[slot];
        self.in_basis[leaving] = false;
        // Artificial columns always rest at zero once nonbasic (their
        // phase-2 bounds are [0, 0]); other columns record which bound they
        // left at.
        self.at_upper[leaving] = leave_at_upper && leaving < self.inst.art_start;
        self.basis[slot] = col;
        self.in_basis[col] = true;
        self.at_upper[col] = false;
        self.x_b[slot] = enter_val;
        let ok = self.fac.update(slot, &self.w);
        if !ok || self.fac.needs_refactor() {
            self.refactorize()?;
        }
        Ok(())
    }

    /// Recomputes `x_B = B⁻¹ (b - Σ_{j at upper} u_j a_j)` from scratch.
    fn recompute_xb(&mut self) {
        let x = &mut self.x_b;
        x.copy_from_slice(&self.inst.b);
        for j in 0..self.inst.ntot {
            if self.at_upper[j] && !self.in_basis[j] {
                let u = self.inst.upper[j];
                for (r, v) in self.inst.a.col(j) {
                    x[r] -= u * v;
                }
            }
        }
        self.fac.ftran(x);
    }

    /// Rebuilds the factorization from the current basis and recomputes
    /// `x_B` from scratch to shed accumulated drift. Errors when the basis
    /// has become floating-point singular: a hinted attempt then restarts
    /// cold, the cold solve returns [`SolverError::Numerical`] to the
    /// caller — no other engine re-solves.
    fn refactorize(&mut self) -> Result<(), SolverError> {
        let a = &self.inst.a;
        // Ill-conditioned but maybe still usable: retry accepting any
        // nonzero pivot before giving up.
        if !(self.fac.refactor(a, &self.basis, PIVOT_TOL) || self.fac.refactor(a, &self.basis, 0.0))
        {
            return Err(SolverError::Numerical {
                context: "basis became singular on refactorization".into(),
            });
        }
        self.recompute_xb();
        Ok(())
    }

    /// Extracts structural values, the phase-2 objective, pivot counters,
    /// and the final basis state. The basic columns are first sorted into
    /// canonical order and the basis refactorized with `x_B` recomputed
    /// from scratch — slot order is pivot-path history, so without this a
    /// warm and a cold solve finishing at the same basis could disagree in
    /// the last floating-point bits. After canonicalization the returned
    /// values are a pure function of the final `(basis set, at_upper)`
    /// state. That canonical factorization is handed back through `kept`.
    fn extract(
        mut self,
        kept: &mut Option<KeptLu>,
    ) -> Result<RevisedOutcome, (SolverError, SolveStats)> {
        let sorted = self.basis.windows(2).all(|w| w[0] < w[1]);
        if !sorted || self.fac.has_updates() || self.completed {
            self.basis.sort_unstable();
            self.refactorize().map_err(|e| (e, self.stats))?;
        }
        let mut x = vec![0.0; self.inst.n];
        for (j, xv) in x.iter_mut().enumerate() {
            if self.at_upper[j] && !self.in_basis[j] {
                *xv = self.inst.upper[j];
            }
        }
        for (i, &c) in self.basis.iter().enumerate() {
            if c < self.inst.n {
                x[c] = self.x_b[i];
            }
        }
        for (j, v) in x.iter_mut().enumerate() {
            // Clamp tiny pivoting noise back into the variable's range.
            if *v < 0.0 && *v > -1e-9 {
                *v = 0.0;
            }
            let u = self.inst.upper[j];
            if u.is_finite() && *v > u && *v < u + 1e-9 {
                *v = u;
            }
        }
        let mut objective: f64 = self
            .basis
            .iter()
            .zip(&self.x_b)
            .map(|(&c, &v)| self.inst.costs[c] * v)
            .sum();
        for j in 0..self.inst.n {
            if self.at_upper[j] && !self.in_basis[j] {
                objective += self.inst.costs[j] * self.inst.upper[j];
            }
        }
        *kept = Some(KeptLu {
            basis: self.basis.clone(),
            fac: self.fac,
        });
        Ok(RevisedOutcome {
            x,
            objective,
            stats: self.stats,
            basis: self.basis,
            at_upper: self.at_upper,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn std_lp(ncols: usize, costs: Vec<f64>, rows: Vec<(Vec<f64>, Cmp, f64)>) -> StandardForm {
        let rows = rows
            .into_iter()
            .map(|(dense, cmp, rhs)| {
                let terms: Vec<(usize, f64)> = dense
                    .into_iter()
                    .enumerate()
                    .filter(|&(_, c)| c != 0.0)
                    .collect();
                (terms, cmp, rhs)
            })
            .collect();
        StandardForm {
            ncols,
            costs,
            rows,
            upper: vec![f64::INFINITY; ncols],
        }
    }

    fn solve_with(
        lp: &StandardForm,
        hint: Option<(&[usize], &[bool])>,
    ) -> Result<RevisedOutcome, SolverError> {
        solve_instance(&Instance::build(lp), hint, &mut None).map_err(|(e, _)| e)
    }

    fn solve(lp: &StandardForm) -> Result<RevisedOutcome, SolverError> {
        solve_with(lp, None)
    }

    fn solve_hinted(
        lp: &StandardForm,
        hint: &RevisedOutcome,
    ) -> Result<RevisedOutcome, SolverError> {
        solve_with(lp, Some((&hint.basis, &hint.at_upper)))
    }

    #[test]
    fn matches_dense_on_basic_min() {
        let lp = std_lp(2, vec![-1.0, -1.0], vec![(vec![1.0, 1.0], Cmp::Le, 1.0)]);
        let out = solve(&lp).unwrap();
        assert!((out.objective + 1.0).abs() < 1e-9);
        assert!((out.x[0] + out.x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn equality_and_ge_rows() {
        let lp = std_lp(
            2,
            vec![1.0, 2.0],
            vec![
                (vec![1.0, 1.0], Cmp::Eq, 3.0),
                (vec![1.0, 0.0], Cmp::Le, 2.0),
            ],
        );
        let out = solve(&lp).unwrap();
        assert!((out.x[0] - 2.0).abs() < 1e-8);
        assert!((out.x[1] - 1.0).abs() < 1e-8);
        assert!((out.objective - 4.0).abs() < 1e-8);
    }

    #[test]
    fn negative_rhs_normalization() {
        let lp = std_lp(1, vec![1.0], vec![(vec![-1.0], Cmp::Le, -2.0)]);
        let out = solve(&lp).unwrap();
        assert!((out.x[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_detected() {
        let lp = std_lp(
            1,
            vec![0.0],
            vec![(vec![1.0], Cmp::Ge, 2.0), (vec![1.0], Cmp::Le, 1.0)],
        );
        assert_eq!(solve(&lp).unwrap_err(), SolverError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let lp = std_lp(1, vec![-1.0], vec![(vec![-1.0], Cmp::Le, 0.0)]);
        assert_eq!(solve(&lp).unwrap_err(), SolverError::Unbounded);
    }

    #[test]
    fn beale_cycling_terminates() {
        let lp = std_lp(
            4,
            vec![-0.75, 150.0, -0.02, 6.0],
            vec![
                (vec![0.25, -60.0, -0.04, 9.0], Cmp::Le, 0.0),
                (vec![0.5, -90.0, -0.02, 3.0], Cmp::Le, 0.0),
                (vec![0.0, 0.0, 1.0, 0.0], Cmp::Le, 1.0),
            ],
        );
        let out = solve(&lp).unwrap();
        assert!((out.objective + 0.05).abs() < 1e-9, "obj={}", out.objective);
    }

    #[test]
    fn redundant_equality_rows() {
        let lp = std_lp(
            2,
            vec![1.0, 1.0],
            vec![
                (vec![1.0, 1.0], Cmp::Eq, 2.0),
                (vec![1.0, 1.0], Cmp::Eq, 2.0),
            ],
        );
        let out = solve(&lp).unwrap();
        assert!((out.objective - 2.0).abs() < 1e-8);
    }

    #[test]
    fn implicit_upper_bounds_bind() {
        // min -x - y s.t. x + y <= 3, x <= 1, y <= 1.5 via column bounds.
        let mut lp = std_lp(2, vec![-1.0, -1.0], vec![(vec![1.0, 1.0], Cmp::Le, 3.0)]);
        lp.upper = vec![1.0, 1.5];
        let out = solve(&lp).unwrap();
        assert!((out.objective + 2.5).abs() < 1e-9, "obj={}", out.objective);
        assert!((out.x[0] - 1.0).abs() < 1e-9);
        assert!((out.x[1] - 1.5).abs() < 1e-9);
    }

    #[test]
    fn bound_flip_happens_without_basis_change() {
        // min -x with x <= 2 and a slack-only row that never binds: the
        // optimal move is a pure bound flip of x to its upper bound.
        let mut lp = std_lp(1, vec![-1.0], vec![(vec![1.0], Cmp::Le, 10.0)]);
        lp.upper = vec![2.0];
        let out = solve(&lp).unwrap();
        assert!((out.x[0] - 2.0).abs() < 1e-12);
        assert!((out.objective + 2.0).abs() < 1e-12);
        assert!(out.stats.bound_flips >= 1, "stats={:?}", out.stats);
        assert_eq!(out.stats.total_pivots(), 0, "stats={:?}", out.stats);
    }

    #[test]
    fn bounded_only_unbounded_direction_is_capped() {
        // max x + y with x free of rows, x <= 5, y <= 1: bounded purely by
        // column bounds (no binding rows at all besides a slack row).
        let mut lp = std_lp(2, vec![-1.0, -1.0], vec![(vec![1.0, 0.0], Cmp::Le, 100.0)]);
        lp.upper = vec![5.0, 1.0];
        let out = solve(&lp).unwrap();
        assert!((out.objective + 6.0).abs() < 1e-9);
    }

    #[test]
    fn warm_start_from_optimal_basis_is_pivot_free() {
        let lp = std_lp(
            2,
            vec![-3.0, -2.0],
            vec![
                (vec![1.0, 1.0], Cmp::Le, 4.0),
                (vec![1.0, 0.0], Cmp::Le, 2.0),
            ],
        );
        let cold = solve(&lp).unwrap();
        let warm = solve_hinted(&lp, &cold).unwrap();
        assert_eq!(warm.stats.total_pivots(), 0);
        assert_eq!(warm.stats.warm_hits, 1);
        assert_eq!(warm.stats.warm_falls_back, 0);
        assert!((warm.objective - cold.objective).abs() < 1e-12);
        assert_eq!(warm.x, cold.x);
    }

    #[test]
    fn warm_start_with_changed_rhs_reoptimizes() {
        let mk = |cap: f64| {
            std_lp(
                2,
                vec![-3.0, -2.0],
                vec![
                    (vec![1.0, 1.0], Cmp::Le, cap),
                    (vec![1.0, 0.0], Cmp::Le, 2.0),
                ],
            )
        };
        let cold4 = solve(&mk(4.0)).unwrap();
        // Loosen the first row: the old basis stays feasible, phase 2 only.
        let warm6 = solve_hinted(&mk(6.0), &cold4).unwrap();
        let cold6 = solve(&mk(6.0)).unwrap();
        assert!((warm6.objective - cold6.objective).abs() < 1e-9);
    }

    #[test]
    fn tightened_rhs_takes_the_dual_path() {
        // max 3x + 2y s.t. x + y <= cap, x <= 2. Tightening cap makes the
        // old basis primal infeasible but dual feasible: the warm solve
        // must repair it with dual pivots, not a cold restart.
        let mk = |cap: f64| {
            std_lp(
                2,
                vec![-3.0, -2.0],
                vec![
                    (vec![1.0, 1.0], Cmp::Le, cap),
                    (vec![1.0, 0.0], Cmp::Le, 2.0),
                ],
            )
        };
        let cold6 = solve(&mk(6.0)).unwrap();
        let warm4 = solve_hinted(&mk(4.0), &cold6).unwrap();
        let cold4 = solve(&mk(4.0)).unwrap();
        assert!((warm4.objective - cold4.objective).abs() < 1e-9);
        assert_eq!(warm4.stats.warm_hits, 1);
        assert_eq!(warm4.stats.warm_falls_back, 0);
        assert_eq!(warm4.stats.pivots_phase1, 0);
    }

    #[test]
    fn rising_floor_sequence_dual_reoptimizes() {
        // Water-filling shape: max t = 2 x0 + x1 under a shared budget,
        // while a *bottlenecked* job's floor (a `>=` row without the t
        // term) rises round over round — exactly the LP family the
        // hierarchical policy re-solves. The first rounds leave the old
        // basis primal feasible (its surplus absorbs the rise); once the
        // floor crosses the surplus level the basis turns primal
        // infeasible but stays dual feasible, forcing a dual pivot. No
        // round may ever cold-start.
        let mk = |floor: f64| {
            std_lp(
                3,
                vec![0.0, 0.0, -1.0],
                vec![
                    (vec![1.0, 1.0, 0.0], Cmp::Le, 1.0),
                    (vec![2.0, 1.0, -1.0], Cmp::Ge, 0.0),
                    (vec![1.0, 2.0, 0.0], Cmp::Ge, floor),
                ],
            )
        };
        let mut hint = solve(&mk(0.5)).unwrap();
        let mut dual_pivots = 0;
        for r in 1..6 {
            let floor = 0.5 + 0.25 * r as f64;
            let warm = solve_hinted(&mk(floor), &hint).unwrap();
            let cold = solve(&mk(floor)).unwrap();
            assert!(
                (warm.objective - cold.objective).abs() < 1e-9,
                "round {r}: warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
            assert_eq!(warm.stats.warm_falls_back, 0, "round {r} fell back");
            assert_eq!(warm.stats.pivots_phase1, 0, "round {r} ran phase 1");
            dual_pivots += warm.stats.dual_pivots;
            hint = warm;
        }
        assert!(dual_pivots > 0, "no dual pivots over the whole sequence");
    }

    #[test]
    fn bogus_hints_fall_back_to_cold() {
        let lp = std_lp(2, vec![-1.0, -1.0], vec![(vec![1.0, 1.0], Cmp::Le, 1.0)]);
        let cold = solve(&lp).unwrap();
        let bogus: [(Vec<usize>, Vec<bool>); 4] = [
            (vec![], vec![]),
            (vec![0, 0], vec![false; 3]),
            (vec![99], vec![false; 3]),
            (vec![7, 7, 7], vec![false; 3]),
        ];
        for (basis, at_upper) in &bogus {
            let warm = solve_with(&lp, Some((basis, at_upper))).unwrap();
            assert!((warm.objective - cold.objective).abs() < 1e-12);
            assert_eq!(warm.stats.warm_falls_back, 1);
            assert_eq!(warm.stats.warm_hits, 0);
        }
    }
}
