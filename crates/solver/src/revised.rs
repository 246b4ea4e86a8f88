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
//! A primal iteration prices the columns with reduced costs from one
//! BTRAN (`Bᵀ y = c_B`), then runs one FTRAN (`B w = a_q`) for the ratio
//! test — `O(nnz)` per pivot instead of `O(m * width)`. A dual iteration
//! prices against the prices and the leaving row `rho` of `B⁻¹` (`Bᵀ rho
//! = e_r`); one BTRAN pass solves both (`Basis::btran2`), walking the eta
//! file and the LU factors once. Columns are priced by kind: a structural
//! column over its CSC slices, a slack or surplus column from the one
//! `(row, ±1)` entry `Instance::build` records for it. The dual ratio test
//! divides only a nonzero reduced cost (a zero one is a zero ratio). Each
//! of these does the floating-point operations of the plain BTRANs and
//! dot products, in their order, so they leave every pivot and every
//! returned bit as those would.
//!
//! An iteration allocates nothing. The solver owns its three length-`m`
//! vectors — the prices `y`, the row `rho` of `B⁻¹` the dual ratio test
//! reads, the FTRAN image `w` of the entering column — and overwrites them
//! in place; the basis solves in place against its own scratch, appends
//! to one eta slab, and refactorizes inside the buffers it already has
//! (see [`crate::basis`]). A solve's heap blocks are therefore a constant
//! plus the eta slab's doubling, whatever its pivot count.
//!
//! # Bounds
//!
//! Every column is bounded by zero from below and by nothing from above:
//! a finite upper bound reaches this engine as a row of the standard form
//! ([`crate::LpProblem`] lowers it), so a nonbasic column always rests at
//! zero and an entering column always rises from it. The one upper bound
//! is on the artificial columns during phase 2, which are fixed at zero
//! there. That makes them inert: they can neither re-enter nor rise, so a
//! warm-started basis that kept an artificial basic at zero is safe, and
//! the ratio test lets a basic artificial block at zero from either side.
//!
//! # Warm starts and the dual simplex phase
//!
//! `solve_instance` accepts an optional hint, a list of basic columns
//! with every other column at zero — typically the optimal
//! basis of a near-identical LP solved a moment ago (Gavel's
//! water-filling rounds). The hint is first
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
//!   floor or a tightened variable bound, both right-hand-side changes
//!   (a bound is a shift or a row) that leave reduced costs untouched → a
//!   **dual simplex**
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
//! are a pure function of the final basis — warm and cold solves that
//! finish at the same basis return bit-identical solutions. A recomputed
//! basic value that lands outside its bounds by more than the feasibility
//! tolerance is repaired by the dual simplex from that optimal, so dual
//! feasible, basis (or proves the LP infeasible), and the basis it ends at
//! is refactorized and checked again.

use crate::basis::{Basis, NO_COLUMN};
use crate::error::SolverError;
use crate::problem::Cmp;
use crate::simplex::{SolveStats, StandardForm, DEGENERACY_THRESHOLD, FEAS_TOL, PIVOT_TOL, RC_TOL};
use crate::sparse::CscMatrix;

/// Result of a revised-simplex solve: structural values, objective and
/// pivot counters. The final basis stays with its factorization
/// ([`KeptLu`]).
#[derive(Debug, Clone)]
pub(crate) struct RevisedOutcome {
    pub x: Vec<f64>,
    pub objective: f64,
    pub stats: SolveStats,
}

/// The standard form with slack and artificial columns made explicit.
/// Crate-internal, cloneable and patchable (`b`, `costs`, one structural
/// column at a time) so [`crate::PreparedLp`] can re-solve a
/// drifting LP without rebuilding the constraint matrix.
#[derive(Debug, Clone)]
pub(crate) struct Instance {
    /// `m x ntot` constraint matrix (structural, slack, artificial).
    a: CscMatrix,
    /// Nonnegative right-hand side.
    pub(crate) b: Vec<f64>,
    /// Phase-2 costs over all `ntot` columns.
    pub(crate) costs: Vec<f64>,
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
    /// The one entry `(row, ±1)` of slack or surplus column `n + i`, at
    /// `i`: pricing reads it instead of the column's CSC slice.
    slack_entry: Vec<(usize, f64)>,
}

impl Instance {
    /// Sparse `(row, coefficient)` nonzeros of structural column `j`, as
    /// stored (i.e. after negative-RHS row normalization).
    pub(crate) fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.a.col(j)
    }

    /// The slack or surplus column of row `i`, if the row has one.
    pub(crate) fn slack_col(&self, i: usize) -> Option<usize> {
        self.slack_of[i]
    }

    /// The row whose slack or surplus column `j` is, if it is one.
    pub(crate) fn slack_row(&self, j: usize) -> Option<usize> {
        let i = j.checked_sub(self.n)?;
        self.slack_entry.get(i).map(|&(row, _)| row)
    }

    /// The logical column a hint is completed with in row `i`: its slack
    /// (`<=`), its surplus (`>=`) or, on an equality row, its artificial.
    fn logical(&self, i: usize) -> usize {
        self.slack_of[i].unwrap_or(self.init_basis[i])
    }

    /// Prices the columns below `art_start` that `keep` admits, in column
    /// order, calling `visit(j, a_j · v)`: a structural column over its CSC
    /// slices, a slack or surplus column from its one `(row, ±1)` entry.
    /// Each product is bit for bit [`CscMatrix::col_dot`]'s.
    fn price(&self, v: &[f64], keep: impl Fn(usize) -> bool, mut visit: impl FnMut(usize, f64)) {
        for j in (0..self.n).filter(|&j| keep(j)) {
            visit(j, self.a.col_dot(j, v));
        }
        for (i, &(r, sign)) in self.slack_entry.iter().enumerate() {
            let j = self.n + i;
            if keep(j) {
                // `0.0 +` as the dot product's accumulator starts.
                visit(j, 0.0 + v[r] * sign);
            }
        }
    }

    /// [`Instance::price`] against two vectors at once: `visit(j, a_j · v,
    /// a_j · z)`, bit for bit [`CscMatrix::col_dot2`]'s.
    fn price2(
        &self,
        v: &[f64],
        z: &[f64],
        keep: impl Fn(usize) -> bool,
        mut visit: impl FnMut(usize, f64, f64),
    ) {
        for j in (0..self.n).filter(|&j| keep(j)) {
            let (av, az) = self.a.col_dot2(j, v, z);
            visit(j, av, az);
        }
        for (i, &(r, sign)) in self.slack_entry.iter().enumerate() {
            let j = self.n + i;
            if keep(j) {
                // `0.0 +` as the dot product's accumulator starts.
                visit(j, 0.0 + v[r] * sign, 0.0 + z[r] * sign);
            }
        }
    }

    /// Rewrites structural column `j`; see [`CscMatrix::set_col`].
    pub(crate) fn set_col(&mut self, j: usize, entries: &[(usize, f64)]) -> bool {
        debug_assert!(j < self.n, "only structural columns are patchable");
        self.a.set_col(j, entries)
    }

    pub(crate) fn build(lp: &StandardForm) -> Instance {
        let m = lp.rows.len();
        let n = lp.ncols;
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
        // in ascending row order, and `LpProblem` has already merged
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
        let mut slack_entry = Vec::with_capacity(n_slack);
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
                    slack_entry.push((i, 1.0));
                    init_basis.push(slack_cursor);
                    slack_of[i] = Some(slack_cursor);
                    slack_cursor += 1;
                }
                Cmp::Ge => {
                    put(slack_cursor, i, -1.0);
                    slack_entry.push((i, -1.0));
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
        Instance {
            a: CscMatrix::from_parts(m, col_ptr, row_idx, values),
            b,
            costs,
            n,
            art_start,
            ntot,
            m,
            init_basis,
            slack_of,
            slack_entry,
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

/// The basis a solve finished with and its factorization, kept so the
/// basis and its row duals can be read afterwards ([`KeptLu::duals`])
/// without a solve paying for them.
#[derive(Debug, Clone)]
pub(crate) struct KeptLu {
    /// Basic column per row, in canonical (sorted) order.
    pub(crate) basis: Vec<usize>,
    fac: Basis,
}

impl KeptLu {
    /// The duals `y = B⁻ᵀ c_B` of the kept basis under `costs`, one per
    /// stored row: one BTRAN.
    pub(crate) fn duals(&mut self, costs: &[f64]) -> Vec<f64> {
        let mut y: Vec<f64> = self.basis.iter().map(|&c| costs[c]).collect();
        self.fac.btran(&mut y);
        y
    }
}

/// Solves a standard-form LP, built fresh or kept and patched by a
/// [`crate::PreparedLp`], with the revised simplex. `hint` is an optional
/// warm-start basis, sorted columns with every other column at zero; see
/// the module docs for how hints are completed and classified.
/// Hints that do not fit or stay unusable fall back to a cold start.
/// `kept` receives the optimal basis and its factorization, and is empty
/// after a failed solve.
pub(crate) fn solve_instance(
    inst: &Instance,
    hint: Option<&[usize]>,
    kept: &mut Option<KeptLu>,
) -> Result<RevisedOutcome, SolverError> {
    *kept = None;
    let mut spent = SolveStats::default();
    if let Some(hint) = hint {
        // Assume fallback; on success the warm solver's own stats (which
        // carry `warm_hits = 1` instead) are returned and `spent` is
        // dropped.
        spent.warm_falls_back = 1;
        if let Some(mut solver) = Solver::from_hint(inst, hint) {
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
                    Err(SolverError::Infeasible) => return Err(SolverError::Infeasible),
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
    let mut solver = Solver::cold(inst)?;
    solver.iter_limit += spent.total_pivots();
    solver.stats = spent;
    solver.phase1().and_then(|()| solver.phase2())?;
    solver.extract(kept)
}

/// The pivot limit of one solve attempt.
fn auto_limit(inst: &Instance) -> usize {
    200 * (inst.m + inst.ntot + 1) + 20_000
}

/// A hinted attempt gets this fraction of [`auto_limit`]: a warm start
/// that needs more has stopped being one, and what it spends before the
/// cold solve takes over is pure loss.
const WARM_SHARE: usize = 16;

struct Solver<'a> {
    inst: &'a Instance,
    /// Cap on the attempt's pivots; past it the attempt ends in
    /// [`SolverError::IterationLimit`].
    iter_limit: usize,
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    fac: Basis,
    /// `fac` completed a partial or singular hint, so its factor columns
    /// are not in the canonical order [`Solver::extract`] reads values in.
    completed: bool,
    x_b: Vec<f64>,
    /// Dual prices `B⁻ᵀ c_B` from the last [`Solver::prices`] or
    /// [`Solver::prices_and_row`].
    y: Vec<f64>,
    /// Row `slot` of `B⁻¹` from the last [`Solver::inverse_row`] or
    /// [`Solver::prices_and_row`].
    rho: Vec<f64>,
    /// FTRAN image `B⁻¹ a_j` from the last [`Solver::ftran_col`].
    w: Vec<f64>,
    stats: SolveStats,
    bland: bool,
    degenerate_run: usize,
}

impl<'a> Solver<'a> {
    /// A solver at `basis`, factorized as `fac`, with `x_B` solved from
    /// it and no pivots spent. `in_basis` is refilled from `basis`
    /// whatever it holds, so a caller's scratch marks can be handed in.
    fn new(
        inst: &'a Instance,
        basis: Vec<usize>,
        fac: Basis,
        mut in_basis: Vec<bool>,
        completed: bool,
        iter_limit: usize,
    ) -> Solver<'a> {
        in_basis.clear();
        in_basis.resize(inst.ntot, false);
        for &c in &basis {
            in_basis[c] = true;
        }
        let mut solver = Solver {
            inst,
            iter_limit,
            basis,
            in_basis,
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
        solver
    }

    /// The identity start basis: each row's slack or artificial column,
    /// every factor a unit column, so `x_B` is `b` bit for bit. Its
    /// factorization cannot fail on a well-formed instance; if it
    /// does, the solve reports [`SolverError::Numerical`].
    fn cold(inst: &'a Instance) -> Result<Solver<'a>, SolverError> {
        let basis = inst.init_basis.clone();
        let fac =
            Basis::factorize(&inst.a, &basis, PIVOT_TOL).ok_or_else(|| SolverError::Numerical {
                context: "identity start basis is singular".into(),
            })?;
        let limit = auto_limit(inst);
        Ok(Solver::new(inst, basis, fac, Vec::new(), false, limit))
    }

    /// Builds a solver from a warm-start basis: at most one column per row,
    /// none named twice, every nonbasic column at zero. The
    /// hinted columns are factorized and completed in one pass
    /// ([`Basis::complete`]): a column dependent on the others is dropped,
    /// and each row left without one gets its logical column. `None` only
    /// for a basis that does not fit the instance. Feasibility is *not*
    /// checked here — the caller classifies the completed basis as primal
    /// feasible, dual feasible, or unusable.
    fn from_hint(inst: &'a Instance, hint: &[usize]) -> Option<Solver<'a>> {
        if hint.len() > inst.m {
            return None;
        }
        let mut named = vec![false; inst.ntot];
        for &c in hint {
            if c >= inst.ntot || named[c] {
                return None; // Out of range or repeated column.
            }
            named[c] = true;
        }
        let mut basis = Vec::with_capacity(inst.m);
        basis.extend_from_slice(hint);
        basis.resize(inst.m, NO_COLUMN);
        let logical = |row| inst.logical(row);
        let (fac, added) = Basis::complete(&inst.a, &mut basis, logical, PIVOT_TOL);
        let limit = auto_limit(inst) / WARM_SHARE;
        Some(Solver::new(inst, basis, fac, named, added > 0, limit))
    }

    /// Upper bound of a column: none, except that in phase 2 artificial
    /// columns are fixed at zero, which bans re-entry and caps any basic
    /// artificial so it can never rise above zero.
    fn ub(&self, col: usize, phase: u8) -> f64 {
        if phase == 2 && col >= self.inst.art_start {
            0.0
        } else {
            f64::INFINITY
        }
    }

    /// Whether every basic variable sits within its (phase-2) bounds.
    fn primal_feasible(&self) -> bool {
        self.basis
            .iter()
            .zip(&self.x_b)
            .all(|(&c, &v)| v >= -FEAS_TOL && v <= self.ub(c, 2) + FEAS_TOL)
    }

    /// Whether the basis is dual feasible for the phase-2 costs: no
    /// nonbasic column's reduced cost `c_j − a_j·y` below `-1e-7`.
    fn dual_feasible(&mut self) -> bool {
        let inst = self.inst;
        self.prices(&inst.costs);
        let mut infeasible = false;
        inst.price(
            &self.y,
            |j| !self.in_basis[j],
            |j, ay| {
                infeasible |= -(inst.costs[j] - ay) > 1e-7;
            },
        );
        !infeasible
    }

    /// Dual prices `y = B⁻ᵀ c_B` for the given cost vector, into `y`.
    fn prices(&mut self, costs: &[f64]) {
        self.load_costs(costs);
        self.fac.btran(&mut self.y);
    }

    /// Row `slot` of `B⁻¹`, into `rho`: `rho · a_j = (B⁻¹ a_j)[slot]`.
    fn inverse_row(&mut self, slot: usize) {
        self.load_unit(slot);
        self.fac.btran(&mut self.rho);
    }

    /// [`Solver::prices`] and [`Solver::inverse_row`] in one BTRAN pass,
    /// each vector bit for bit what its own solve would make.
    fn prices_and_row(&mut self, costs: &[f64], slot: usize) {
        self.load_costs(costs);
        self.load_unit(slot);
        self.fac.btran2(&mut self.y, &mut self.rho);
    }

    /// `c_B` into `y`, the right-hand side of the prices' BTRAN.
    fn load_costs(&mut self, costs: &[f64]) {
        for (yi, &c) in self.y.iter_mut().zip(&self.basis) {
            *yi = costs[c];
        }
    }

    /// `e_slot` into `rho`, the right-hand side of row `slot`'s BTRAN.
    fn load_unit(&mut self, slot: usize) {
        self.rho.fill(0.0);
        self.rho[slot] = 1.0;
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
                    // (numerically) zero, so the entering column stays
                    // (numerically) at zero too.
                    let t = if self.x_b[slot].abs() <= 1e-12 {
                        0.0
                    } else {
                        (self.x_b[slot] / w[slot]).max(0.0)
                    };
                    self.apply_pivot(slot, j, t)?;
                }
            }
        }
        Ok(())
    }

    /// Runs primal pivots until no entering column remains.
    fn pivot_loop(&mut self, costs: &[f64], phase: u8) -> Result<(), SolverError> {
        loop {
            let pivots = self.stats.total_pivots();
            if pivots > self.iter_limit {
                return Err(SolverError::IterationLimit { pivots });
            }
            let Some(col) = self.choose_entering(costs) else {
                return Ok(());
            };
            self.ftran_col(col);
            let Some((slot, t)) = self.choose_step(phase) else {
                // Mirrors the dense engine: phase 1 is bounded below by
                // zero, so "unbounded" there means numerical trouble;
                // callers treat both as hard errors.
                return Err(SolverError::Unbounded);
            };
            // Stability guard: a barely-eligible pivot element after a run
            // of eta updates is usually accumulated error, not a real
            // near-degenerate column. Refactorize and redo the iteration
            // with exact factors before committing.
            if self.w[slot].abs() < 1e-7 && self.fac.has_updates() {
                self.refactorize()?;
                continue;
            }
            self.apply_pivot(slot, col, t)?;
            if phase == 1 {
                self.stats.pivots_phase1 += 1;
            } else {
                self.stats.pivots_phase2 += 1;
            }
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
    /// suspected, Bland (lowest index). Returns the entering column, which
    /// rises from zero; artificial columns never enter.
    fn choose_entering(&mut self, costs: &[f64]) -> Option<usize> {
        self.prices(costs);
        let mut best = None;
        let mut best_viol = RC_TOL;
        let inst = self.inst;
        inst.price(
            &self.y,
            |j| !self.in_basis[j],
            |j, ay| {
                if self.bland && best.is_some() {
                    return; // Bland: the lowest index wins.
                }
                let viol = -(costs[j] - ay);
                if viol > best_viol {
                    best_viol = viol;
                    best = Some(j);
                }
            },
        );
        best
    }

    /// Ratio test over `w = B⁻¹ a_q` for an entering column rising from
    /// zero: a basic variable blocks where it falls to zero, a basic
    /// artificial in phase 2 also where it would rise above zero. Returns
    /// the blocking slot and the step length, or `None` when no limit
    /// exists (unbounded ray).
    fn choose_step(&self, phase: u8) -> Option<(usize, f64)> {
        let w = &self.w;
        // (slot, ratio, |pivot element|)
        let mut best: Option<(usize, f64, f64)> = None;
        for i in 0..self.inst.m {
            // Rate of change of x_B[i] per unit of entering movement.
            let delta = -w[i];
            let ratio = if delta < -PIVOT_TOL {
                // Decreasing toward its lower bound (zero).
                (self.x_b[i] / -delta).max(0.0)
            } else if delta > PIVOT_TOL {
                let ubi = self.ub(self.basis[i], phase);
                if !ubi.is_finite() {
                    continue;
                }
                // Increasing toward its upper bound.
                ((ubi - self.x_b[i]) / delta).max(0.0)
            } else {
                continue;
            };
            let better = match best {
                None => true,
                Some((bslot, bratio, bpivot)) => {
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
                best = Some((i, ratio, w[i].abs()));
            }
        }
        best.map(|(slot, t, _)| (slot, t))
    }

    /// Dual simplex phase: from a dual-feasible basis, repeatedly drive the
    /// most bound-violating basic variable to zero, the bound it violates,
    /// choosing the entering column by the dual ratio test so reduced costs
    /// keep their optimality signs. Terminates at primal feasibility (then
    /// phase 2 finishes, usually pivot-free) or proves the LP infeasible
    /// (dual unbounded) — though callers on the warm path re-derive that
    /// verdict cold.
    fn dual_phase(&mut self) -> Result<(), SolverError> {
        let costs = &self.inst.costs;
        loop {
            let pivots = self.stats.total_pivots();
            if pivots > self.iter_limit {
                return Err(SolverError::IterationLimit { pivots });
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
            self.prices_and_row(costs, r);
            // Entering: minimum dual ratio |d_j| / |alpha_j| over columns
            // whose rise pushes x_B[r] back toward zero.
            let mut best: Option<(usize, f64, f64)> = None; // (j, ratio, |alpha|)
            let consider = |j: usize, alpha: f64, ay: f64| {
                if alpha.abs() <= PIVOT_TOL {
                    return;
                }
                // x_B[r] moves by `-alpha` per unit step; it must move down
                // when above its upper bound, up when below zero.
                if above != (alpha > 0.0) {
                    return;
                }
                let dres = (costs[j] - ay).max(0.0);
                // A zero reduced cost is a zero ratio: no division.
                let ratio = if dres == 0.0 { 0.0 } else { dres / alpha.abs() };
                let better = match best {
                    None => true,
                    Some((bj, bratio, balpha)) => {
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
                    best = Some((j, ratio, alpha.abs()));
                }
            };
            let inst = self.inst;
            inst.price2(&self.rho, &self.y, |j| !self.in_basis[j], consider);
            let Some((q, ratio, _)) = best else {
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
            // Step length that lands x_B[r] exactly on zero, the bound it
            // violates either way.
            let t = (self.x_b[r] / w_r).max(0.0);
            self.apply_pivot(r, q, t)?;
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
    /// in `w`, entering with step `t`, updating `x_B` and the factorization
    /// (refactorizing when the eta file is full or the product-form update
    /// is rejected). The leaving column rests at zero.
    fn apply_pivot(&mut self, slot: usize, col: usize, t: f64) -> Result<(), SolverError> {
        for (xi, &wi) in self.x_b.iter_mut().zip(&self.w) {
            *xi -= t * wi;
        }
        self.in_basis[self.basis[slot]] = false;
        self.basis[slot] = col;
        self.in_basis[col] = true;
        self.x_b[slot] = t;
        let ok = self.fac.update(slot, &self.w);
        if !ok || self.fac.needs_refactor() {
            self.refactorize()?;
        }
        Ok(())
    }

    /// Recomputes `x_B = B⁻¹ b` from scratch.
    fn recompute_xb(&mut self) {
        self.x_b.copy_from_slice(&self.inst.b);
        self.fac.ftran(&mut self.x_b);
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

    /// Extracts structural values, the phase-2 objective and pivot
    /// counters. The basic columns are first sorted into
    /// canonical order and the basis refactorized with `x_B` recomputed
    /// from scratch — slot order is pivot-path history, so without this a
    /// warm and a cold solve finishing at the same basis could disagree in
    /// the last floating-point bits. After canonicalization the returned
    /// values are a pure function of the final basis set. That canonical basis and its factorization are handed back
    /// through `kept`, where [`crate::PreparedLp::basis`] reads the one and
    /// [`KeptLu::duals`] the optimum's row duals from the other.
    ///
    /// A recomputed basic value can land outside its bounds where the
    /// updates held it inside. The dual simplex repairs it from the optimal
    /// — so dual feasible — basis, and the basis it ends at is
    /// canonicalized and checked in turn.
    fn extract(mut self, kept: &mut Option<KeptLu>) -> Result<RevisedOutcome, SolverError> {
        loop {
            let sorted = self.basis.windows(2).all(|w| w[0] < w[1]);
            if !sorted || self.fac.has_updates() || self.completed {
                self.basis.sort_unstable();
                self.completed = false;
                self.refactorize()?;
            }
            if self.primal_feasible() {
                break;
            }
            self.dual_phase()?;
        }
        let mut x = vec![0.0; self.inst.n];
        for (i, &c) in self.basis.iter().enumerate() {
            if c < self.inst.n {
                x[c] = self.x_b[i];
            }
        }
        for v in &mut x {
            // Clamp tiny negative pivoting noise back to zero.
            if *v < 0.0 && *v > -1e-9 {
                *v = 0.0;
            }
        }
        let objective: f64 = self
            .basis
            .iter()
            .zip(&self.x_b)
            .map(|(&c, &v)| self.inst.costs[c] * v)
            .sum();
        #[cfg(debug_assertions)]
        assert_eq!(self.certify(objective), Ok(()), "optimality certificate");
        *kept = Some(KeptLu {
            basis: self.basis,
            fac: self.fac,
        });
        Ok(RevisedOutcome {
            x,
            objective,
            stats: self.stats,
        })
    }

    /// Certifies `primal` optimal from the state's own duals `y = B⁻ᵀ c_B`
    /// (priced into `y`; nothing is allocated): every nonbasic reduced cost
    /// `d_j = c_j − a_j·y` at least `-1e-7·(1 + |c_j| + Σ|a_ij y_i|)`, every
    /// basic value at least `-1e-6` (a basic artificial also at most
    /// `1e-6`), and `primal` equal to `b·y` within `1e-6·(1 + max)`.
    #[cfg(debug_assertions)]
    fn certify(&mut self, primal: f64) -> Result<(), Violation> {
        let check = |what, at, off: f64, tol: f64| {
            (off <= tol)
                .then_some(())
                .ok_or(Violation { what, at, off, tol })
        };
        let inst = self.inst;
        self.prices(&inst.costs);
        let dual: f64 = inst.b.iter().zip(&self.y).map(|(b, y)| b * y).sum();
        for j in (0..inst.art_start).filter(|&j| !self.in_basis[j]) {
            let miss = -(inst.costs[j] - inst.a.col_dot(j, &self.y));
            let size: f64 = inst.a.col(j).map(|(r, v)| (v * self.y[r]).abs()).sum();
            let tol = 1e-7 * (1.0 + inst.costs[j].abs() + size);
            check("reduced cost", j, miss, tol)?;
        }
        for (slot, (&c, &v)) in self.basis.iter().zip(&self.x_b).enumerate() {
            check("basic value", slot, (-v).max(v - self.ub(c, 2)), 1e-6)?;
        }
        let scale = 1.0 + primal.abs().max(dual.abs());
        check("duality gap", 0, (primal - dual).abs(), 1e-6 * scale)
    }
}

/// A condition [`Solver::certify`] found broken: which one, at which
/// column or basis slot, by how much, and the tolerance it exceeded.
#[cfg(debug_assertions)]
#[derive(Debug, Clone, Copy, PartialEq)]
struct Violation {
    what: &'static str,
    at: usize,
    off: f64,
    tol: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::tests::Rng;
    use proptest::prelude::*;

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
        StandardForm { ncols, costs, rows }
    }

    /// `lp`'s revised solve after [`LpProblem::lower`]: its finite upper
    /// bounds as rows.
    fn solve_lowered(lp: &crate::LpProblem) -> RevisedOutcome {
        solve(&lp.lower().unwrap()).unwrap()
    }

    /// The outcome of a solve hinted with `hint`, and its optimal basis.
    fn solve_with(
        lp: &StandardForm,
        hint: Option<&[usize]>,
    ) -> Result<(RevisedOutcome, Vec<usize>), SolverError> {
        let mut kept = None;
        let out = solve_instance(&Instance::build(lp), hint, &mut kept)?;
        Ok((out, kept.expect("an optimum keeps its basis").basis))
    }

    fn solve(lp: &StandardForm) -> Result<RevisedOutcome, SolverError> {
        solve_with(lp, None).map(|(out, _)| out)
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
        // max x + y s.t. x + y <= 3, x <= 1, y <= 1.5 via variable bounds.
        let mut lp = crate::LpProblem::new(crate::Sense::Maximize);
        let x = lp.add_var("x", 0.0, 1.0, 1.0);
        let y = lp.add_var("y", 0.0, 1.5, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Le, 3.0);
        let out = solve_lowered(&lp);
        assert!((out.objective + 2.5).abs() < 1e-9, "obj={}", out.objective);
        assert!((out.x[0] - 1.0).abs() < 1e-9);
        assert!((out.x[1] - 1.5).abs() < 1e-9);
        assert_eq!(out.stats.bound_flips, 0, "a bound is a row, never a flip");
    }

    #[test]
    fn bounded_only_unbounded_direction_is_capped() {
        // max x + y with x free of rows, x <= 5, y <= 1: bounded purely by
        // variable bounds (no binding rows at all besides a slack row).
        let mut lp = crate::LpProblem::new(crate::Sense::Maximize);
        let x = lp.add_var("x", 0.0, 5.0, 1.0);
        lp.add_var("y", 0.0, 1.0, 1.0);
        lp.add_constraint(&[(x, 1.0)], Cmp::Le, 100.0);
        let out = solve_lowered(&lp);
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
        let (cold, basis) = solve_with(&lp, None).unwrap();
        let (warm, _) = solve_with(&lp, Some(&basis)).unwrap();
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
        let (_, basis4) = solve_with(&mk(4.0), None).unwrap();
        // Loosen the first row: the old basis stays feasible, phase 2 only.
        let (warm6, _) = solve_with(&mk(6.0), Some(&basis4)).unwrap();
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
        let (_, basis6) = solve_with(&mk(6.0), None).unwrap();
        let (warm4, _) = solve_with(&mk(4.0), Some(&basis6)).unwrap();
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
        let (_, mut hint) = solve_with(&mk(0.5), None).unwrap();
        let mut dual_pivots = 0;
        for r in 1..6 {
            let floor = 0.5 + 0.25 * r as f64;
            let (warm, basis) = solve_with(&mk(floor), Some(&hint)).unwrap();
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
            hint = basis;
        }
        assert!(dual_pivots > 0, "no dual pivots over the whole sequence");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn certificate_rejects_a_feasible_non_optimal_state_and_accepts_the_optimum() {
        // max 3x + 2y s.t. x + y <= 4, x <= 2: hinted at its origin (slack)
        // basis and not pivoted, the state is primal feasible at x = y = 0
        // but both structural columns price out profitable.
        let lp = std_lp(
            2,
            vec![-3.0, -2.0],
            vec![
                (vec![1.0, 1.0], Cmp::Le, 4.0),
                (vec![1.0, 0.0], Cmp::Le, 2.0),
            ],
        );
        let inst = Instance::build(&lp);
        let mut solver = Solver::from_hint(&inst, &inst.init_basis).unwrap();
        assert!(solver.primal_feasible());
        let verdict = solver.certify(0.0).unwrap_err();
        assert_eq!(verdict.what, "reduced cost", "{verdict:?}");
        assert!(verdict.off > verdict.tol, "{verdict:?}");

        // Pivoted to the optimum x = y = 2, objective -10 in the standard
        // form's minimization.
        solver.phase2().unwrap();
        assert_eq!(solver.certify(-10.0), Ok(()));
        // The same optimal basis, reported with a wrong objective.
        let verdict = solver.certify(-10.0 + 1e-3).unwrap_err();
        assert_eq!(verdict.what, "duality gap", "{verdict:?}");
    }

    /// One random instance: up to 12 structural columns over up to 10
    /// rows of every comparison, some with a negative right-hand side (so
    /// normalization flips them), priced by kind against two vectors that
    /// hold exact and negative zeros.
    fn check_pricing(seed: u64) -> Result<(), TestCaseError> {
        let mut rng = Rng(seed);
        let (n, m) = (1 + rng.below(12), 1 + rng.below(10));
        let rows = (0..m)
            .map(|_| {
                let terms: Vec<(usize, f64)> = (0..n)
                    .map(|j| (j, if rng.below(3) == 0 { rng.value() } else { 0.0 }))
                    .filter(|&(_, c)| c != 0.0)
                    .collect();
                let cmp = [Cmp::Le, Cmp::Ge, Cmp::Eq][rng.below(3)];
                (terms, cmp, rng.value())
            })
            .collect();
        let lp = StandardForm {
            ncols: n,
            costs: vec![0.0; n],
            rows,
        };
        let inst = Instance::build(&lp);
        let mut vector = || -> Vec<f64> {
            (0..m)
                .map(|_| if rng.below(6) == 0 { -0.0 } else { rng.value() })
                .collect()
        };
        let (v, z) = (vector(), vector());
        let (mut two, mut one) = (Vec::new(), Vec::new());
        inst.price2(&v, &z, |_| true, |j, av, az| two.push((j, av, az)));
        inst.price(&v, |_| true, |j, av| one.push((j, av)));
        prop_assert_eq!(two.len(), inst.art_start);
        prop_assert_eq!(one.len(), inst.art_start);
        for (j, (&(j2, av, az), &(j1, a1))) in two.iter().zip(&one).enumerate() {
            prop_assert_eq!((j2, j1), (j, j), "column order");
            let (cv, cz) = inst.a.col_dot2(j, &v, &z);
            prop_assert_eq!((av.to_bits(), az.to_bits()), (cv.to_bits(), cz.to_bits()));
            prop_assert_eq!(
                a1.to_bits(),
                inst.a.col_dot(j, &v).to_bits(),
                "column {}",
                j
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Pricing by column kind gives every column below the artificials,
        /// in column order, the bits of its CSC dot products.
        #[test]
        fn pricing_by_kind_matches_the_csc_dot_products(seed in any::<u64>()) {
            check_pricing(seed)?;
        }
    }

    #[test]
    fn bogus_hints_fall_back_to_cold() {
        let lp = std_lp(2, vec![-1.0, -1.0], vec![(vec![1.0, 1.0], Cmp::Le, 1.0)]);
        let cold = solve(&lp).unwrap();
        // Longer than the one row, or naming a column out of range.
        let bogus: [&[usize]; 3] = [&[0, 0], &[99], &[7, 7, 7]];
        for basis in bogus {
            let (warm, _) = solve_with(&lp, Some(basis)).unwrap();
            assert!((warm.objective - cold.objective).abs() < 1e-12);
            assert_eq!(warm.stats.warm_falls_back, 1);
            assert_eq!(warm.stats.warm_hits, 0);
        }
    }
}
