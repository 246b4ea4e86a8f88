//! A lowered LP kept ready for re-solving under small changes.
//!
//! Gavel's expensive policies solve one LP many times: the water-filling
//! round LP with rising floors and a shrinking active set, the max-min
//! LP and its refine pass under patched costs and one bound. Validation,
//! lowering and the sparse matrix build depend on none of what moves
//! between those solves; [`PreparedLp`] pays them once. It is also the one
//! warm-startable entry point: a single warm solve is a fresh prepared LP
//! solved once with a hint, and [`LpProblem::solve`] is the same solve
//! body, cold.
//!
//! A prepared LP owns its [`LpProblem`] and the standard-form instance
//! lowered from it, and keeps the two in step: every patch
//! ([`PreparedLp::set_objective_coeff`], [`PreparedLp::set_rhs`],
//! [`PreparedLp::set_bounds`], [`PreparedLp::set_column`]) edits the
//! problem and writes exactly the bits a fresh lowering of the edited
//! problem would produce into the instance. The contract is therefore
//! simple: **[`PreparedLp::solve`] returns what
//! `PreparedLp::new(self.problem().clone())?.solve(hint)` would, bit for
//! bit** — same values, same objective, same counters — and
//! [`PreparedLp::basis`] then reads the same basis.
//!
//! Every variable is one shifted column and every stored row its
//! standard-form row, so a lower-bound patch is a shift the variable's
//! rows absorb, and a column patch is one column rewritten. Patches that
//! cannot be written in place — a right-hand side whose sign flips (which
//! changes the row's slack/artificial structure), a bound patch to or from
//! a finite upper bound or a column patch of a variable that has one (each
//! finite upper bound is a row of its own), a column given out of
//! constraint order or outgrowing the room it was built with, invalid
//! input — mark the instance stale, and the next solve
//! re-lowers from the problem first (reporting invalid input the way
//! [`LpProblem::solve`] does). Correctness never depends on a patch being
//! expressible; only the saving does.
//!
//! The final basis of each solve is kept with its factorization, for two
//! readers: [`PreparedLp::basis`] names its columns in problem terms, the
//! one basis format the solver takes back as a hint, and
//! [`PreparedLp::row_duals`] prices the optimum's rows from the
//! factorization with one BTRAN, paid only by a caller that asks. A patch
//! that changes the matrix or the costs drops both, since what they would
//! give is no longer the last optimum's.

use crate::error::SolverError;
use crate::problem::{valid_bounds, ConstraintId, LpProblem, VarId};
use crate::revised::{Instance, KeptLu};
use crate::simplex::LpSolution;

/// One basic column of a basis, named in problem terms: what a hint for
/// [`PreparedLp::solve`] lists and [`PreparedLp::basis`] reads back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasisEntry {
    /// The column of a variable: standard column `i` is variable `i`.
    Var(VarId),
    /// The slack (`<=`) or surplus (`>=`) column of a constraint.
    Slack(ConstraintId),
}

/// An [`LpProblem`] lowered once and re-solved by patching; see the module
/// docs for the equivalence contract.
#[derive(Debug, Clone)]
pub struct PreparedLp {
    lp: LpProblem,
    inst: Instance,
    /// Per row: whether its lowered right-hand side was negative when the
    /// instance was built, i.e. the row is stored negated.
    negated: Vec<bool>,
    /// Some patch since the last build could not be written in place.
    stale: bool,
    kept: Option<KeptLu>,
}

impl PreparedLp {
    /// Validates and lowers `lp`. Errors as [`LpProblem::solve`] would on
    /// invalid input.
    pub fn new(lp: LpProblem) -> Result<PreparedLp, SolverError> {
        let std = lp.lower()?;
        Ok(PreparedLp {
            inst: Instance::build(&std),
            negated: std.rows.iter().map(|row| row.2 < 0.0).collect(),
            lp,
            stale: false,
            kept: None,
        })
    }

    /// The problem this prepared LP currently stands for, with every patch
    /// applied.
    pub fn problem(&self) -> &LpProblem {
        &self.lp
    }

    /// Overwrites the objective coefficient of `var`.
    pub fn set_objective_coeff(&mut self, var: VarId, obj: f64) {
        self.lp.set_objective_coeff(var, obj);
        self.kept = None;
        self.stale |= !obj.is_finite();
        if !self.stale {
            self.inst.costs[var.index()] = self.lp.std_cost(var.index());
        }
    }

    /// Overwrites the right-hand side of `constraint`.
    pub fn set_rhs(&mut self, constraint: ConstraintId, rhs: f64) {
        self.lp.set_rhs(constraint, rhs);
        self.stale |= !rhs.is_finite();
        self.refresh_row(constraint.0);
    }

    /// Overwrites the bounds of `var`. In place while its upper bound stays
    /// infinite; one to or from a finite upper bound re-lowers.
    pub fn set_bounds(&mut self, var: VarId, lower: f64, upper: f64) {
        let (_, old_upper) = self.lp.bounds(var);
        self.lp.set_bounds(var, lower, upper);
        self.stale |= !valid_bounds(lower, upper) || old_upper.is_finite() || upper.is_finite();
        if self.stale {
            return;
        }
        let col = var.index();
        // The shift moved: every row the variable appears in absorbs it.
        let rows: Vec<usize> = self.inst.col(col).map(|(row, _)| row).collect();
        for row in rows {
            self.refresh_row(row);
        }
    }

    /// Replaces the coefficients of `var` across all constraints: it ends
    /// up with exactly the given `(constraint, coefficient)` entries
    /// (zeros meaning absent, a repeated constraint's coefficients summed)
    /// and appears nowhere else. In-place when the entries come in
    /// ascending constraint order and fit the room the column had when the
    /// LP was prepared, and the variable has no finite upper bound.
    pub fn set_column(&mut self, var: VarId, entries: &[(ConstraintId, f64)]) {
        let col = var.index();
        self.stale |= self.lp.bounds(var).1.is_finite();
        // Rows that currently mention the variable: its stored column
        // while the instance is in step with the problem, else every row.
        let old_rows: Vec<usize> = if self.stale {
            (0..self.lp.num_constraints()).collect()
        } else {
            self.inst.col(col).map(|(row, _)| row).collect()
        };
        self.lp.replace_column(col, &old_rows, entries);
        self.stale |= entries.iter().any(|e| !e.1.is_finite())
            || !entries.windows(2).all(|w| w[0].0 .0 < w[1].0 .0);
        if self.stale {
            return;
        }
        let stored: Vec<(usize, f64)> = entries
            .iter()
            .map(|&(c, coeff)| (c.0, if self.negated[c.0] { -coeff } else { coeff }))
            .collect();
        if !self.inst.set_col(col, &stored) {
            self.stale = true;
            return;
        }
        self.kept = None;
        for row in old_rows.into_iter().chain(entries.iter().map(|e| e.0 .0)) {
            self.refresh_row(row);
        }
    }

    /// Recomputes the stored right-hand side of row `i` the way the
    /// lowering does; a sign flip changes the row's structure, which only
    /// a rebuild can express.
    fn refresh_row(&mut self, i: usize) {
        if self.stale {
            return;
        }
        let rhs = self.lp.lowered_rhs(i);
        if (rhs < 0.0) != self.negated[i] {
            self.stale = true;
        } else {
            self.inst.b[i] = if self.negated[i] { -rhs } else { rhs };
        }
    }

    /// Solves the current problem, warm-started from the basis `hint`
    /// names when given: at most one entry per constraint, in any order,
    /// every column it does not name resting at its lower bound. The same
    /// classification of hints, verdicts and counters as a fresh prepared
    /// LP of [`PreparedLp::problem`], by construction: both map the entries
    /// to columns after any re-lowering and run one solve body over the
    /// lowered instance.
    ///
    /// A hint is never required to be valid. A singular or partial one is
    /// completed: a dependent column is dropped and a row left without one
    /// gets its slack, surplus or artificial. A hint that does not fit (more
    /// entries than constraints, an entry named twice, the slack of an
    /// equality row, which has none, an entry naming no variable or
    /// constraint of this problem), or whose completed basis is neither
    /// primal nor dual feasible, or a warm solve that fails part-way, falls
    /// back to a cold start on a full pivot budget of its own — save an
    /// infeasibility the dual phase *proves* from a validated dual-feasible
    /// basis (see [`crate::revised`]). A hint thus never changes the
    /// verdict or the optimal objective; on an LP with several optimal
    /// vertices it may steer which one is returned. What the cold solve
    /// then fails with, a [`SolverError::Numerical`] collapse included, is
    /// the caller's error.
    pub fn solve(&mut self, hint: Option<&[BasisEntry]>) -> Result<LpSolution, SolverError> {
        if self.stale {
            *self = PreparedLp::new(self.lp.clone())?;
        }
        let (n, rows) = (self.lp.num_vars(), self.lp.num_constraints());
        let hint = hint.map(|entries| {
            let mut columns = Vec::with_capacity(entries.len());
            columns.extend(entries.iter().map(|entry| match *entry {
                BasisEntry::Var(v) if v.0 < n => v.0,
                BasisEntry::Slack(c) if c.0 < rows => {
                    self.inst.slack_col(c.0).unwrap_or(usize::MAX)
                }
                // No column of this problem: a hint that does not fit.
                _ => usize::MAX,
            }));
            columns.sort_unstable();
            columns
        });
        (self.lp).solve_lowered(&self.inst, hint.as_deref(), &mut self.kept)
    }

    /// The basic columns of the optimum the last [`PreparedLp::solve`]
    /// returned, in problem terms and column order, as a hint for the next
    /// solve. Artificial columns and the slacks of the finite upper bounds'
    /// rows have no such name and are left out; a hint written from the
    /// rest is completed in their rows, a bound row with its slack. So a
    /// variable that rested at its upper bound may come back elsewhere,
    /// another point, classified like any hint. `None` exactly when
    /// [`PreparedLp::row_duals`] is.
    pub fn basis(&self) -> Option<Vec<BasisEntry>> {
        let kept = self.kept.as_ref().filter(|_| !self.stale)?;
        let (n, rows) = (self.lp.num_vars(), self.lp.num_constraints());
        let mut entries = Vec::with_capacity(kept.basis.len());
        entries.extend(kept.basis.iter().filter_map(|&c| {
            if c < n {
                Some(BasisEntry::Var(VarId(c)))
            } else {
                let row = self.inst.slack_row(c).filter(|&row| row < rows)?;
                Some(BasisEntry::Slack(ConstraintId(row)))
            }
        }));
        Some(entries)
    }

    /// The row duals of the optimum the last [`PreparedLp::solve`]
    /// returned, indexed by [`ConstraintId::index`], in problem sense: `y_i`
    /// is the rate at which the optimal objective moves with constraint
    /// `i`'s right-hand side. In a maximization a binding `<=` row has
    /// `y_i >= 0` and a binding `>=` row `y_i <= 0`; a row with slack has
    /// `y_i = 0`. One BTRAN on the kept factorization. `None` before the
    /// first solve, after a failed one, and after a patch to the costs or
    /// the matrix, or one still waiting for a re-lowering.
    pub fn row_duals(&mut self) -> Option<Vec<f64>> {
        let kept = self.kept.as_mut().filter(|_| !self.stale)?;
        let mut y = kept.duals(&self.inst.costs);
        y.truncate(self.lp.num_constraints());
        let sign = self.lp.cost_sign();
        for (yi, &negated) in y.iter_mut().zip(&self.negated) {
            *yi *= if negated { -sign } else { sign };
        }
        Some(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Cmp, Sense};

    /// max 3x + 2y s.t. x + y <= 4, x - y >= -1, x in [0, 3], y in [0, 5].
    fn small() -> (LpProblem, [VarId; 2], [ConstraintId; 2]) {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 0.0, 3.0, 3.0);
        let y = lp.add_var("y", 0.0, 5.0, 2.0);
        let c0 = lp.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        let c1 = lp.add_constraint(&[(x, 1.0), (y, -1.0)], Cmp::Ge, -1.0);
        (lp, [x, y], [c0, c1])
    }

    /// Solves `prep` and a fresh prepared LP of its problem from `hint`,
    /// asserts the two agree bit for bit, and returns the basis read back.
    fn assert_same(prep: &mut PreparedLp, hint: Option<&[BasisEntry]>) -> Vec<BasisEntry> {
        let mut fresh = PreparedLp::new(prep.problem().clone()).unwrap();
        let want = fresh.solve(hint).unwrap();
        let sol = prep.solve(hint).unwrap();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&sol.values), bits(&want.values));
        assert_eq!(sol.objective.to_bits(), want.objective.to_bits());
        assert_eq!(sol.stats, want.stats);
        let basis = prep.basis().unwrap();
        assert_eq!(basis, fresh.basis().unwrap());
        basis
    }

    #[test]
    fn patches_match_fresh_solves() {
        let (lp, [x, y], [c0, c1]) = small();
        let mut prep = PreparedLp::new(lp).unwrap();
        let mut basis = assert_same(&mut prep, None);
        prep.set_objective_coeff(y, 4.0);
        basis = assert_same(&mut prep, Some(&basis));
        prep.set_rhs(c0, 3.5);
        assert!(!prep.stale, "an rhs patch is written in place");
        basis = assert_same(&mut prep, Some(&basis));
        // `x` and `y` have finite upper bounds, each a row of its own: a
        // bound or column patch of either re-lowers.
        prep.set_bounds(x, 0.5, 2.0);
        assert!(prep.stale);
        basis = assert_same(&mut prep, Some(&basis));
        prep.set_column(y, &[(c0, 2.0)]);
        assert!(prep.stale);
        basis = assert_same(&mut prep, Some(&basis));
        // So does a sign flip: the row's structure changes.
        prep.set_rhs(c1, 0.5);
        assert!(prep.stale);
        assert_same(&mut prep, Some(&basis));
        assert!(!prep.stale);
    }

    #[test]
    fn merged_rows_take_bound_and_column_patches_in_place() {
        // Rows given with a repeated variable and an exact zero are stored
        // as their standard-form rows, so the prepared LP patches them in
        // place, like any other. (No variable has a finite upper bound,
        // whose row a bound or column patch would re-lower.)
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 0.0, f64::INFINITY, 3.0);
        let y = lp.add_var("y", 0.5, f64::INFINITY, 2.0);
        let z = lp.add_var("z", 0.0, f64::INFINITY, 1.0);
        let c0 = lp.add_constraint(&[(y, 0.5), (x, 1.0), (z, 0.0), (y, 0.5)], Cmp::Le, 4.0);
        let c1 = lp.add_constraint(&[(z, 1.0), (x, 1.0), (y, -1.0), (z, -1.0)], Cmp::Ge, -1.0);
        let c2 = lp.add_constraint(&[(z, 1.0), (x, 1.0)], Cmp::Le, 6.0);
        let c3 = lp.add_constraint(&[(z, 1.0)], Cmp::Le, 2.0);
        let terms =
            |prep: &PreparedLp, c: ConstraintId| prep.problem().cons[c.index()].terms.clone();
        let mut prep = PreparedLp::new(lp).unwrap();
        assert_eq!(terms(&prep, c0), [(0, 1.0), (1, 1.0)]);
        assert_eq!(terms(&prep, c1), [(0, 1.0), (1, -1.0)]);
        assert!(prep.negated[c1.index()]);
        let mut basis = assert_same(&mut prep, None);
        // A moved shift.
        prep.set_bounds(y, 0.25, f64::INFINITY);
        assert!(!prep.stale, "a lower-bound patch is written in place");
        basis = assert_same(&mut prep, Some(&basis));
        // `x` leaves the negated row; `z` enters it.
        prep.set_column(x, &[(c0, 2.0), (c1, 0.0), (c2, -1.0)]);
        assert!(!prep.stale, "a column patch is written in place");
        assert_eq!(terms(&prep, c0), [(0, 2.0), (1, 1.0)]);
        assert_eq!(terms(&prep, c1), [(1, -1.0)]);
        basis = assert_same(&mut prep, Some(&basis));
        prep.set_column(z, &[(c1, 1.0), (c3, 1.0)]);
        assert!(!prep.stale, "a column patch is written in place");
        assert_eq!(terms(&prep, c1), [(1, -1.0), (2, 1.0)]);
        basis = assert_same(&mut prep, Some(&basis));
        // A repeated constraint is summed into the row (here to nothing),
        // but is no ascending column: the next solve re-lowers.
        prep.set_column(y, &[(c0, 1.0), (c0, -1.0), (c1, -1.0)]);
        assert_eq!(terms(&prep, c0), [(0, 2.0)]);
        assert!(prep.stale);
        assert_same(&mut prep, Some(&basis));
    }

    #[test]
    fn invalid_patches_surface_at_solve() {
        let (lp, [x, _], _) = small();
        let mut prep = PreparedLp::new(lp).unwrap();
        prep.set_bounds(x, 2.0, 1.0);
        let err = prep.solve(None).unwrap_err();
        assert_eq!(err, SolverError::InvalidBounds { var: "x".into() });
        // Repairing the input repairs the prepared LP.
        prep.set_bounds(x, 1.0, 2.0);
        assert_same(&mut prep, None);
    }

    #[test]
    fn row_duals_are_the_optimum_prices_in_problem_sense() {
        // max x + 2y + z s.t. x + y <= 4, x - y >= 1, -z >= -2 (stored
        // negated, as z <= 2), y <= 10. At the optimum x = 2.5, y = 1.5,
        // z = 2 the first three rows bind: 1 = y0 + y1 and 2 = y0 - y1
        // with Lagrange multipliers y0 = 1.5, y1 = 0.5, and z's row prices
        // its unit cost. A `>=` row of a maximization tightens as its
        // right-hand side rises, so its rate is the negated multiplier.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = lp.add_var("y", 0.0, f64::INFINITY, 2.0);
        let z = lp.add_var("z", 0.0, f64::INFINITY, 1.0);
        let budget = lp.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        let gap = lp.add_constraint(&[(x, 1.0), (y, -1.0)], Cmp::Ge, 1.0);
        let cap = lp.add_constraint(&[(z, -1.0)], Cmp::Ge, -2.0);
        lp.add_constraint(&[(y, 1.0)], Cmp::Le, 10.0);
        let mut prep = PreparedLp::new(lp).unwrap();
        assert!(prep.negated[cap.index()]);
        assert_eq!(prep.row_duals(), None, "no solve yet");
        let sol = prep.solve(None).unwrap();
        assert_eq!(sol.values, [2.5, 1.5, 2.0]);
        let duals = prep.row_duals().unwrap();
        let want = [1.5, -0.5, -1.0, 0.0];
        for (got, want) in duals.iter().zip(want) {
            assert!((got - want).abs() < 1e-12, "{duals:?}");
        }
        // Each binding row's dual is the rate a nudge of its right-hand
        // side moves the optimum at.
        for row in [budget, gap, cap] {
            let mut moved = prep.problem().clone();
            moved.set_rhs(row, prep.problem().rhs(row) + 0.25);
            let delta = moved.solve().unwrap().objective - sol.objective;
            assert!((delta - 0.25 * want[row.index()]).abs() < 1e-12, "{delta}");
        }
        // A matrix patch drops them until the next solve.
        prep.set_column(y, &[(budget, 1.0), (gap, -2.0)]);
        assert_eq!(prep.row_duals(), None, "after set_column");
        prep.solve(None).unwrap();
        assert!(prep.row_duals().is_some());
    }

    #[test]
    fn the_basis_is_read_when_the_row_duals_are() {
        // max x + y s.t. x + y <= 4, x >= 1, y in [0, 2].
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = lp.add_var("y", 0.0, 2.0, 1.0);
        let cap = lp.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        let floor = lp.add_constraint(&[(x, 1.0)], Cmp::Ge, 1.0);
        let mut prep = PreparedLp::new(lp).unwrap();
        let read = |prep: &mut PreparedLp, want: bool, when: &str| {
            assert_eq!(prep.basis().is_some(), want, "basis {when}");
            assert_eq!(prep.row_duals().is_some(), want, "row duals {when}");
        };
        read(&mut prep, false, "before the first solve");
        prep.solve(None).unwrap();
        read(&mut prep, true, "after a solve");
        // The right-hand side and a lower bound move the point, not the
        // basis.
        prep.set_rhs(cap, 5.0);
        read(&mut prep, true, "after set_rhs");
        prep.set_bounds(x, 0.5, f64::INFINITY);
        read(&mut prep, true, "after a lower-bound patch");
        // A finite upper bound is a row of its own: a patch to or from one
        // re-lowers.
        prep.set_bounds(y, 0.5, 2.0);
        read(&mut prep, false, "after an upper-bound patch");
        prep.solve(None).unwrap();
        prep.set_objective_coeff(x, 2.0);
        read(&mut prep, false, "after set_objective_coeff");
        prep.solve(None).unwrap();
        prep.set_column(y, &[(cap, 2.0)]);
        read(&mut prep, false, "after set_column");
        prep.solve(None).unwrap();
        // x >= 10 but x + 2y <= 5 with y >= 0.5.
        prep.set_rhs(floor, 10.0);
        read(&mut prep, true, "after an rhs patch in place");
        assert_eq!(prep.solve(None).unwrap_err(), SolverError::Infeasible);
        read(&mut prep, false, "after a failed solve");
    }

    #[test]
    fn a_hint_names_its_columns_after_a_re_lowering() {
        // The row-duals LP below: its optimum's basis, hinted after a
        // patch that flips the sign of `x - y >= 1`'s right-hand side (so
        // the row trades its surplus and artificial for a slack), is mapped
        // onto the re-lowered instance and still starts the solve warm.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = lp.add_var("y", 0.0, f64::INFINITY, 2.0);
        let z = lp.add_var("z", 0.0, f64::INFINITY, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        let gap = lp.add_constraint(&[(x, 1.0), (y, -1.0)], Cmp::Ge, 1.0);
        lp.add_constraint(&[(z, -1.0)], Cmp::Ge, -2.0);
        lp.add_constraint(&[(y, 1.0)], Cmp::Le, 10.0);
        let mut prep = PreparedLp::new(lp).unwrap();
        prep.solve(None).unwrap();
        let basis = prep.basis().unwrap();
        prep.set_rhs(gap, -1.0);
        assert!(prep.stale);
        assert_eq!(prep.basis(), None);
        assert_same(&mut prep, Some(&basis));
        let sol = prep.solve(Some(&basis)).unwrap();
        assert_eq!(sol.values, [1.5, 2.5, 2.0]);
        assert_eq!((sol.stats.warm_hits, sol.stats.pivots_phase1), (1, 0));
    }

    #[test]
    fn caller_written_bases_are_classified_not_trusted() {
        // max t s.t. x + y <= 1, 2x + y - t >= 0: the floor row starts a
        // cold solve on a zero-level artificial.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 0.0, f64::INFINITY, 0.0);
        let y = lp.add_var("y", 0.0, f64::INFINITY, 0.0);
        let t = lp.add_var("t", 0.0, f64::INFINITY, 1.0);
        let budget = lp.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Le, 1.0);
        let floor = lp.add_constraint(&[(x, 2.0), (y, 1.0), (t, -1.0)], Cmp::Ge, 0.0);
        let mut prep = PreparedLp::new(lp).unwrap();
        let cold = prep.solve(None).unwrap();
        assert!(cold.stats.pivots_phase1 > 0, "{:?}", cold.stats);

        // The origin, written down from the LP's shape: primal feasible.
        let origin = [BasisEntry::Var(x), BasisEntry::Slack(budget)];
        let warm = prep.solve(Some(&origin)).unwrap();
        assert_eq!(warm.objective.to_bits(), cold.objective.to_bits());
        assert_eq!((warm.stats.warm_hits, warm.stats.pivots_phase1), (1, 0));
        // Read back in problem terms, the optimum hints its own vertex:
        // no pivots, the same bits.
        let entries = prep.basis().unwrap();
        assert_eq!(entries.len(), 2, "{entries:?}");
        let again = prep.solve(Some(&entries)).unwrap();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&again.values), bits(&warm.values));
        assert_eq!(again.objective.to_bits(), cold.objective.to_bits());
        assert_eq!((again.stats.warm_hits, again.stats.total_pivots()), (1, 0));

        // A singular basis (`t` and the floor's surplus both live in the
        // floor row only) and a partial one are completed: the surplus is
        // dropped, the budget row gets its slack, and phase 2 starts from
        // the origin.
        for entries in [
            &[BasisEntry::Var(t), BasisEntry::Slack(floor)][..],
            &[BasisEntry::Var(t)],
            &[],
        ] {
            let sol = prep.solve(Some(entries)).unwrap();
            assert_eq!(sol.objective.to_bits(), cold.objective.to_bits());
            let stats = sol.stats;
            assert_eq!(
                (stats.warm_hits, stats.pivots_phase1),
                (1, 0),
                "{entries:?}"
            );
        }

        // A repeated column still cold-starts.
        let sol = prep
            .solve(Some(&[BasisEntry::Var(x), BasisEntry::Var(x)]))
            .unwrap();
        assert_eq!(sol.objective.to_bits(), cold.objective.to_bits());
        assert_eq!((sol.stats.warm_hits, sol.stats.warm_falls_back), (0, 1));

        // So does the slack of an equality row, which has none.
        let mut lp = LpProblem::new(Sense::Minimize);
        let z = lp.add_var("z", 0.0, f64::INFINITY, 1.0);
        let tie = lp.add_constraint(&[(z, 1.0)], Cmp::Eq, 1.0);
        let mut pinned = PreparedLp::new(lp).unwrap();
        let named = pinned.solve(Some(&[BasisEntry::Var(z)])).unwrap().stats;
        assert_eq!((named.warm_hits, named.warm_falls_back), (1, 0));
        let unnamed = pinned.solve(Some(&[BasisEntry::Slack(tie)])).unwrap().stats;
        assert_eq!((unnamed.warm_hits, unnamed.warm_falls_back), (0, 1));
        // And entries of another problem that name no constraint or
        // variable of this one.
        for alien in [BasisEntry::Slack(floor), BasisEntry::Var(t)] {
            let stats = pinned.solve(Some(&[alien])).unwrap().stats;
            assert_eq!(
                (stats.warm_hits, stats.warm_falls_back),
                (0, 1),
                "{alien:?}"
            );
        }
    }

    #[test]
    fn read_back_bases_keep_no_bound_sides() {
        // `small`'s only optimum, x = 3 and y = 1, rests `x` at its upper
        // bound: `x`, `y` and the slack of `y <= 5` are basic, and the
        // read-back basis names the two variables but not the bound row.
        let (lp, [x, y], [_, c1]) = small();
        let mut prep = PreparedLp::new(lp).unwrap();
        let sol = prep.solve(None).unwrap();
        assert_eq!(sol.value(x), 3.0);
        let entries = prep.basis().unwrap();
        let want = [
            BasisEntry::Var(x),
            BasisEntry::Var(y),
            BasisEntry::Slack(c1),
        ];
        assert_eq!(entries, want);

        // Written back, the hint is completed with the other bound row's
        // slack, which rests `y` at its upper bound instead: another point,
        // which the solve leaves for the same optimum.
        let again = prep.solve(Some(&entries)).unwrap();
        assert_eq!(again.objective.to_bits(), sol.objective.to_bits());
        assert!(again.stats.total_pivots() > 0, "{:?}", again.stats);
    }

    #[test]
    fn bound_rows_are_neither_constraints_nor_basis_entries() {
        // max 2x + y + z s.t. x + y + z <= 4, x - z >= 0.5, x in [0, 10],
        // y in [0.5, 3]: two bound rows follow the two constraints. At the
        // optimum x = 3.5, y = 0.5, z = 0 no upper bound binds.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 0.0, 10.0, 2.0);
        let y = lp.add_var("y", 0.5, 3.0, 1.0);
        let z = lp.add_var("z", 0.0, f64::INFINITY, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0), (z, 1.0)], Cmp::Le, 4.0);
        lp.add_constraint(&[(x, 1.0), (z, -1.0)], Cmp::Ge, 0.5);
        let rows = lp.num_constraints();
        let mut prep = PreparedLp::new(lp).unwrap();
        let sol = prep.solve(None).unwrap();
        assert_eq!(sol.values, [3.5, 0.5, 0.0]);
        assert_eq!(prep.row_duals().unwrap().len(), rows);
        let entries = prep.basis().unwrap();
        for entry in &entries {
            if let BasisEntry::Slack(c) = entry {
                assert!(c.index() < rows, "{entries:?}");
            }
        }
        // Hinted back, the bound rows get their slacks: the same basis,
        // no pivots, the same bits.
        let again = prep.solve(Some(&entries)).unwrap();
        assert_eq!((again.stats.warm_hits, again.stats.total_pivots()), (1, 0));
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&again.values), bits(&sol.values));
        assert_eq!(again.objective.to_bits(), sol.objective.to_bits());
        assert_eq!(prep.basis().unwrap(), entries);
    }
}
