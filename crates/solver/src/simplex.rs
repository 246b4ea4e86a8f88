//! Dense two-phase primal simplex.
//!
//! Operates on the standard form `min c'x` subject to
//! `A x {<=,>=,=} b, x >= 0` produced by [`crate::problem`], the same rows
//! the revised engine ([`crate::revised`]) reads, a finite upper bound
//! among them. The implementation keeps the full tableau in row-major
//! storage, prices with Dantzig's rule, and permanently switches to
//! Bland's rule once a run of degenerate pivots suggests cycling.
//! Artificial variables are driven out of the basis after phase 1 and
//! banned from entering in phase 2. The differential tests
//! ([`crate::LpProblem::solve_dense`]) pit this tableau against the
//! revised engine's factorized basis on the same LP.

use crate::error::SolverError;
use crate::problem::Cmp;

/// A linear program in standard form: minimize `costs . x` subject to the
/// rows, with `x >= 0` (componentwise). A finite upper bound is a row.
///
/// Rows are stored sparsely as `(column, coefficient)` terms — the policy
/// LPs this crate serves have a handful of nonzeros per row regardless of
/// problem size. Column indices within a row are unique and sorted
/// ([`crate::LpProblem`] stores its rows so); the dense tableau
/// scatters them, the revised simplex ([`crate::revised`]) keeps them
/// sparse end to end.
#[derive(Debug, Clone)]
pub struct StandardForm {
    /// Number of structural columns.
    pub ncols: usize,
    /// Objective coefficients, one per structural column.
    pub costs: Vec<f64>,
    /// Constraint rows.
    pub rows: Vec<StdRow>,
}

/// One standard-form row: sparse `(column, coefficient)` terms, the
/// comparison operator, and the right-hand side.
pub type StdRow = (Vec<(usize, f64)>, Cmp, f64);

/// Reduced costs above `-RC_TOL` are treated as nonnegative (optimal).
pub(crate) const RC_TOL: f64 = 1e-9;
/// Pivot elements smaller than this are rejected in the ratio test.
pub(crate) const PIVOT_TOL: f64 = 1e-9;
/// Phase-1 objective values below this are treated as feasible.
pub(crate) const FEAS_TOL: f64 = 1e-7;
/// Consecutive degenerate pivots before switching to Bland's rule.
pub(crate) const DEGENERACY_THRESHOLD: usize = 64;

/// Pivot and warm-path counters reported with every solution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Pivots performed in phase 1 (feasibility search).
    pub pivots_phase1: usize,
    /// Pivots performed in phase 2 (optimality search).
    pub pivots_phase2: usize,
    /// Dual-simplex pivots performed while reoptimizing a warm basis that
    /// was primal infeasible but dual feasible (revised engine only).
    pub dual_pivots: usize,
    /// Always 0: a finite upper bound is a row, so no variable flips
    /// between bounds. Kept only because `bench/src/drills.rs` reads it as
    /// `solver.hier_bound_flips`; the bench refresh (ROADMAP direction 1)
    /// removes it with `dense_fallbacks`.
    pub bound_flips: usize,
    /// 1 when a warm-start hint was accepted and carried the solve to
    /// optimality (primal continuation or dual reoptimization), else 0.
    pub warm_hits: usize,
    /// 1 when a warm-start hint was provided but unusable and the solve
    /// cold-started, else 0: the hint did not fit the problem, its
    /// completed basis was neither primal nor dual feasible, or the warm
    /// attempt failed part-way. A singular or partial hint is completed,
    /// not dropped.
    pub warm_falls_back: usize,
    /// Always 0: no solve is retried on the dense tableau. Kept only
    /// because `bench/src/drills.rs` reads it; the bench refresh (ROADMAP
    /// direction 1) removes both.
    pub dense_fallbacks: usize,
    /// Always 0: water filling solves no probe LPs. Kept only because
    /// `bench/src/drills.rs` reads it as `solver.hier_probe_lps`; the bench
    /// refresh (ROADMAP direction 1) removes it with `dense_fallbacks`.
    pub parallel_probes: usize,
}

impl SolveStats {
    /// Total pivots (phase 1 + phase 2 + dual).
    pub fn total_pivots(&self) -> usize {
        self.pivots_phase1 + self.pivots_phase2 + self.dual_pivots
    }

    /// Sums every counter of `other` into `self` — used by drivers that
    /// aggregate over many solves (water filling, bisection).
    pub fn absorb(&mut self, other: &SolveStats) {
        self.pivots_phase1 += other.pivots_phase1;
        self.pivots_phase2 += other.pivots_phase2;
        self.dual_pivots += other.dual_pivots;
        self.warm_hits += other.warm_hits;
        self.warm_falls_back += other.warm_falls_back;
        self.parallel_probes += other.parallel_probes;
    }
}

/// Solution of an [`crate::LpProblem`].
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Value per variable, indexed by [`crate::VarId`].
    pub values: Vec<f64>,
    /// Objective value in the problem's own sense.
    pub objective: f64,
    /// Pivot counters.
    pub stats: SolveStats,
}

impl LpSolution {
    /// Returns the value of variable `var`.
    pub fn value(&self, var: crate::VarId) -> f64 {
        self.values[var.index()]
    }
}

/// Solves a standard-form LP. Returns `(x, objective, stats)`. Reached
/// only through [`crate::LpProblem::solve_dense`], the oracle entry point.
pub(crate) fn solve_standard(
    lp: &StandardForm,
) -> Result<(Vec<f64>, f64, SolveStats), SolverError> {
    let mut t = Tableau::build(lp);
    t.phase1()?;
    t.phase2()?;
    Ok(t.extract())
}

struct Tableau {
    /// Row-major storage: (m + 1) rows x (width) columns. The final row is
    /// the objective (reduced-cost) row; the final column is the RHS.
    data: Vec<f64>,
    width: usize,
    m: usize,
    /// Structural column count.
    n: usize,
    /// First artificial column (columns >= this are artificial).
    art_start: usize,
    /// Basic column for each constraint row.
    basis: Vec<usize>,
    /// Phase-2 costs per column (structural costs then zeros).
    costs2: Vec<f64>,
    /// Hard cap on total pivots across both phases.
    iter_limit: usize,
    stats: SolveStats,
    bland: bool,
    degenerate_run: usize,
}

impl Tableau {
    fn build(lp: &StandardForm) -> Tableau {
        let m = lp.rows.len();
        let n = lp.ncols;
        // Count auxiliary columns.
        let mut n_slack = 0usize;
        let mut n_art = 0usize;
        for (_, cmp, rhs) in &lp.rows {
            // After RHS normalization the effective cmp may flip.
            let (cmp, _neg) = normalize_cmp(*cmp, *rhs);
            match cmp {
                Cmp::Le => n_slack += 1,
                Cmp::Ge => {
                    n_slack += 1;
                    n_art += 1;
                }
                Cmp::Eq => n_art += 1,
            }
        }
        let art_start = n + n_slack;
        let width = n + n_slack + n_art + 1; // +1 for RHS.
        let mut data = vec![0.0; (m + 1) * width];

        let mut slack_cursor = n;
        let mut art_cursor = art_start;
        let mut basis = vec![usize::MAX; m];
        for (i, (terms, cmp, rhs)) in lp.rows.iter().enumerate() {
            let neg = *rhs < 0.0;
            let sgn = if neg { -1.0 } else { 1.0 };
            let row = &mut data[i * width..(i + 1) * width];
            for &(j, c) in terms {
                row[j] += sgn * c;
            }
            row[width - 1] = sgn * rhs;
            let (cmp, _) = normalize_cmp(*cmp, *rhs);
            match cmp {
                Cmp::Le => {
                    row[slack_cursor] = 1.0;
                    basis[i] = slack_cursor;
                    slack_cursor += 1;
                }
                Cmp::Ge => {
                    row[slack_cursor] = -1.0;
                    slack_cursor += 1;
                    row[art_cursor] = 1.0;
                    basis[i] = art_cursor;
                    art_cursor += 1;
                }
                Cmp::Eq => {
                    row[art_cursor] = 1.0;
                    basis[i] = art_cursor;
                    art_cursor += 1;
                }
            }
        }

        let mut costs2 = vec![0.0; width - 1];
        costs2[..n].copy_from_slice(&lp.costs);

        Tableau {
            data,
            width,
            m,
            n,
            art_start,
            basis,
            costs2,
            iter_limit: 200 * (m + width) + 20_000,
            stats: SolveStats::default(),
            bland: false,
            degenerate_run: 0,
        }
    }

    fn obj_row_index(&self) -> usize {
        self.m
    }

    /// Phase 1: minimize the sum of artificial variables.
    fn phase1(&mut self) -> Result<(), SolverError> {
        if self.art_start == self.width - 1 {
            // No artificials: the all-slack basis is already feasible, but we
            // still must install the phase-2 objective row (done in phase2).
            return Ok(());
        }
        // Phase-1 costs: 1 for artificial columns.
        let width = self.width;
        let obj = self.obj_row_index();
        for j in 0..width - 1 {
            self.data[obj * width + j] = if j >= self.art_start { 1.0 } else { 0.0 };
        }
        self.data[obj * width + width - 1] = 0.0;
        // Price out basic artificials: subtract their rows from the objective.
        for i in 0..self.m {
            if self.basis[i] >= self.art_start {
                for j in 0..width {
                    self.data[obj * width + j] -= self.data[i * width + j];
                }
            }
        }
        self.pivot_loop(1)?;
        let phase1_obj = -self.data[obj * width + width - 1];
        if phase1_obj > FEAS_TOL {
            return Err(SolverError::Infeasible);
        }
        self.expel_artificials();
        Ok(())
    }

    /// Pivots any artificial variables still basic (at value zero) out of the
    /// basis where possible; rows with no eligible pivot are redundant and
    /// left in place (the artificial stays basic at zero and artificial
    /// columns never re-enter).
    fn expel_artificials(&mut self) {
        for i in 0..self.m {
            if self.basis[i] < self.art_start {
                continue;
            }
            let row_off = i * self.width;
            let mut pivot_col = None;
            for j in 0..self.art_start {
                if self.data[row_off + j].abs() > PIVOT_TOL {
                    pivot_col = Some(j);
                    break;
                }
            }
            if let Some(j) = pivot_col {
                self.pivot(i, j);
            }
        }
    }

    /// Phase 2: minimize the real objective.
    fn phase2(&mut self) -> Result<(), SolverError> {
        let width = self.width;
        let obj = self.obj_row_index();
        // Rebuild the reduced-cost row from the phase-2 costs.
        for j in 0..width - 1 {
            self.data[obj * width + j] = self.costs2[j];
        }
        self.data[obj * width + width - 1] = 0.0;
        for i in 0..self.m {
            let cb = self.costs2[self.basis[i]];
            if cb != 0.0 {
                for j in 0..width {
                    self.data[obj * width + j] -= cb * self.data[i * width + j];
                }
            }
        }
        self.pivot_loop(2)
    }

    /// Runs pivots until optimality, counting each as a pivot of `phase`
    /// (1 or 2). Artificial columns never (re-)enter, in either phase: an
    /// artificial that left the basis can never help.
    fn pivot_loop(&mut self, phase: u8) -> Result<(), SolverError> {
        loop {
            let total = self.stats.total_pivots();
            if total > self.iter_limit {
                return Err(SolverError::IterationLimit { pivots: total });
            }
            let Some(col) = self.choose_entering() else {
                return Ok(());
            };
            let Some(row) = self.choose_leaving(col) else {
                // No limiting row: unbounded. Phase 1 objective is bounded
                // below by zero so this indicates numerical trouble there;
                // report it as unbounded regardless (callers treat both as
                // hard errors).
                return Err(SolverError::Unbounded);
            };
            let old_rhs = self.data[row * self.width + self.width - 1];
            self.pivot(row, col);
            if phase == 1 {
                self.stats.pivots_phase1 += 1;
            } else {
                self.stats.pivots_phase2 += 1;
            }
            // Track degeneracy to decide when to fall back to Bland's rule.
            if old_rhs.abs() <= PIVOT_TOL {
                self.degenerate_run += 1;
                if self.degenerate_run >= DEGENERACY_THRESHOLD {
                    self.bland = true;
                }
            } else {
                self.degenerate_run = 0;
            }
        }
    }

    /// Selects the entering column, or `None` when optimal.
    fn choose_entering(&self) -> Option<usize> {
        let obj_off = self.obj_row_index() * self.width;
        let limit = self.art_start; // Artificials never (re-)enter.
        if self.bland {
            (0..limit).find(|&j| self.data[obj_off + j] < -RC_TOL)
        } else {
            let mut best = None;
            let mut best_rc = -RC_TOL;
            for j in 0..limit {
                let rc = self.data[obj_off + j];
                if rc < best_rc {
                    best_rc = rc;
                    best = Some(j);
                }
            }
            best
        }
    }

    /// Ratio test: selects the leaving row for entering column `col`.
    fn choose_leaving(&self, col: usize) -> Option<usize> {
        let width = self.width;
        let mut best: Option<(usize, f64)> = None;
        for i in 0..self.m {
            let a = self.data[i * width + col];
            if a > PIVOT_TOL {
                let ratio = self.data[i * width + width - 1] / a;
                match best {
                    None => best = Some((i, ratio)),
                    Some((bi, br)) => {
                        let tol = 1e-10 * (1.0 + br.abs());
                        if ratio < br - tol {
                            best = Some((i, ratio));
                        } else if (ratio - br).abs() <= tol {
                            // Tie-break: Bland (lowest basis index) when
                            // anti-cycling, otherwise the larger pivot
                            // element for numerical stability.
                            if self.bland {
                                if self.basis[i] < self.basis[bi] {
                                    best = Some((i, ratio));
                                }
                            } else if a > self.data[bi * width + col] {
                                best = Some((i, ratio));
                            }
                        }
                    }
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// Performs the pivot on (`row`, `col`), updating every row including the
    /// objective row.
    fn pivot(&mut self, row: usize, col: usize) {
        let width = self.width;
        let pivot_off = row * width;
        let pivot_val = self.data[pivot_off + col];
        debug_assert!(pivot_val.abs() > 0.0, "zero pivot element");
        let inv = 1.0 / pivot_val;
        for j in 0..width {
            self.data[pivot_off + j] *= inv;
        }
        // Exact unity on the pivot element avoids drift.
        self.data[pivot_off + col] = 1.0;
        for i in 0..=self.m {
            if i == row {
                continue;
            }
            let factor = self.data[i * width + col];
            if factor == 0.0 {
                continue;
            }
            let (head, tail) = self.data.split_at_mut(pivot_off.max(i * width));
            let (pivot_row, target_row) = if i * width < pivot_off {
                let t = &mut head[i * width..i * width + width];
                let p = &tail[..width];
                (p, t)
            } else {
                let p = &head[pivot_off..pivot_off + width];
                let t = &mut tail[..width];
                (p, t)
            };
            for (tj, pj) in target_row.iter_mut().zip(pivot_row.iter()) {
                *tj -= factor * *pj;
            }
            target_row[col] = 0.0;
        }
        self.basis[row] = col;
    }

    /// Extracts structural values, the phase-2 objective, and stats.
    fn extract(&self) -> (Vec<f64>, f64, SolveStats) {
        let width = self.width;
        let mut x = vec![0.0; self.n];
        for i in 0..self.m {
            let b = self.basis[i];
            if b < self.n {
                x[b] = self.data[i * width + width - 1];
            }
        }
        // Clamp tiny negative noise from pivoting.
        for v in &mut x {
            if *v < 0.0 && *v > -1e-9 {
                *v = 0.0;
            }
        }
        let objective = -self.data[self.obj_row_index() * width + width - 1];
        (x, objective, self.stats)
    }
}

/// RHS normalization flips the comparison when the row is negated.
fn normalize_cmp(cmp: Cmp, rhs: f64) -> (Cmp, bool) {
    if rhs < 0.0 {
        let flipped = match cmp {
            Cmp::Le => Cmp::Ge,
            Cmp::Ge => Cmp::Le,
            Cmp::Eq => Cmp::Eq,
        };
        (flipped, true)
    } else {
        (cmp, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LpProblem, Sense};

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

    #[test]
    fn basic_min() {
        // min -x - y s.t. x + y <= 1 => obj -1 at any point on the segment.
        let lp = std_lp(2, vec![-1.0, -1.0], vec![(vec![1.0, 1.0], Cmp::Le, 1.0)]);
        let (x, obj, _) = solve_standard(&lp).unwrap();
        assert!((obj + 1.0).abs() < 1e-9);
        assert!((x[0] + x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn equality_constraints() {
        // min x + 2y s.t. x + y = 3, x <= 2  => x=2, y=1, obj=4.
        let lp = std_lp(
            2,
            vec![1.0, 2.0],
            vec![
                (vec![1.0, 1.0], Cmp::Eq, 3.0),
                (vec![1.0, 0.0], Cmp::Le, 2.0),
            ],
        );
        let (x, obj, _) = solve_standard(&lp).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-8);
        assert!((x[1] - 1.0).abs() < 1e-8);
        assert!((obj - 4.0).abs() < 1e-8);
    }

    #[test]
    fn negative_rhs_normalization() {
        // x >= 2 written as -x <= -2.
        let lp = std_lp(1, vec![1.0], vec![(vec![-1.0], Cmp::Le, -2.0)]);
        let (x, obj, _) = solve_standard(&lp).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((obj - 2.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible() {
        let lp = std_lp(
            1,
            vec![0.0],
            vec![(vec![1.0], Cmp::Ge, 2.0), (vec![1.0], Cmp::Le, 1.0)],
        );
        assert_eq!(solve_standard(&lp).unwrap_err(), SolverError::Infeasible);
    }

    #[test]
    fn unbounded() {
        let lp = std_lp(1, vec![-1.0], vec![(vec![-1.0], Cmp::Le, 0.0)]);
        assert_eq!(solve_standard(&lp).unwrap_err(), SolverError::Unbounded);
    }

    #[test]
    fn beale_cycling_example_terminates() {
        // Beale's classic cycling example; Dantzig pivoting cycles without
        // anti-cycling safeguards.
        let lp = std_lp(
            4,
            vec![-0.75, 150.0, -0.02, 6.0],
            vec![
                (vec![0.25, -60.0, -0.04, 9.0], Cmp::Le, 0.0),
                (vec![0.5, -90.0, -0.02, 3.0], Cmp::Le, 0.0),
                (vec![0.0, 0.0, 1.0, 0.0], Cmp::Le, 1.0),
            ],
        );
        let (_, obj, _) = solve_standard(&lp).unwrap();
        assert!((obj + 0.05).abs() < 1e-9, "obj={obj}");
    }

    #[test]
    fn degenerate_problem() {
        // Multiple constraints active at the optimum.
        let lp = std_lp(
            2,
            vec![-1.0, -1.0],
            vec![
                (vec![1.0, 0.0], Cmp::Le, 1.0),
                (vec![0.0, 1.0], Cmp::Le, 1.0),
                (vec![1.0, 1.0], Cmp::Le, 2.0),
                (vec![1.0, 1.0], Cmp::Le, 2.0),
            ],
        );
        let (x, obj, _) = solve_standard(&lp).unwrap();
        assert!((obj + 2.0).abs() < 1e-9);
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn redundant_equality_rows() {
        // Two identical equalities leave an artificial basic at zero; the
        // redundant row must not break phase 2.
        let lp = std_lp(
            2,
            vec![1.0, 1.0],
            vec![
                (vec![1.0, 1.0], Cmp::Eq, 2.0),
                (vec![1.0, 1.0], Cmp::Eq, 2.0),
            ],
        );
        let (x, obj, _) = solve_standard(&lp).unwrap();
        assert!((obj - 2.0).abs() < 1e-8);
        assert!((x[0] + x[1] - 2.0).abs() < 1e-8);
    }

    #[test]
    fn finite_uppers_lower_to_rows_after_the_users() {
        // max x + 2y + z s.t. x + y + z <= 4, x in [0, 1], y in [0.5, 2],
        // z >= 0: each finite upper is one `x' <= u - l` row, in variable
        // order after the user's row; `z` has none.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 0.0, 1.0, 1.0);
        let y = lp.add_var("y", 0.5, 2.0, 2.0);
        let z = lp.add_var("z", 0.0, f64::INFINITY, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0), (z, 1.0)], Cmp::Le, 4.0);
        let std = lp.lower().unwrap();
        assert_eq!(lp.num_constraints(), 1);
        assert_eq!(
            std.rows,
            [
                (vec![(0, 1.0), (1, 1.0), (2, 1.0)], Cmp::Le, 3.5),
                (vec![(0, 1.0)], Cmp::Le, 1.0),
                (vec![(1, 1.0)], Cmp::Le, 1.5),
            ]
        );
        // Both engines solve those rows: y = 2 and x = 1 bind, z takes
        // the rest of the budget.
        for sol in [lp.solve().unwrap(), lp.solve_dense().unwrap()] {
            assert!((sol.objective - 6.0).abs() < 1e-9, "obj={}", sol.objective);
            assert!((sol[x] - 1.0).abs() < 1e-9 && (sol[y] - 2.0).abs() < 1e-9);
            assert!((sol[z] - 1.0).abs() < 1e-9);
        }
        // A shifted lower bound moves the bound row's right-hand side.
        lp.set_bounds(y, 1.25, 2.0);
        let rows = lp.lower().unwrap().rows;
        assert_eq!(rows[2], (vec![(1, 1.0)], Cmp::Le, 0.75));
        assert_eq!(rows[0].2, 2.75);
    }

    #[test]
    fn zero_rhs_equality() {
        // min x s.t. x - y = 0, y <= 5, -x <= -3  => x = y in [3,5], obj 3.
        let lp = std_lp(
            2,
            vec![1.0, 0.0],
            vec![
                (vec![1.0, -1.0], Cmp::Eq, 0.0),
                (vec![0.0, 1.0], Cmp::Le, 5.0),
                (vec![1.0, 0.0], Cmp::Ge, 3.0),
            ],
        );
        let (x, obj, _) = solve_standard(&lp).unwrap();
        assert!((obj - 3.0).abs() < 1e-8);
        assert!((x[0] - x[1]).abs() < 1e-8);
    }
}
