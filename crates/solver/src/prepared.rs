//! A lowered LP kept ready for re-solving under small changes.
//!
//! Gavel's expensive policies solve one LP *family* many times: the
//! water-filling round LP with rising floors and a shrinking active set,
//! and the bottleneck probe LP solved under one cost vector per job.
//! [`LpProblem::solve_warm`] pays validation, lowering, the sparse matrix
//! build and a first factorization on every call, although none of those
//! depend on what moved. [`PreparedLp`] pays them once.
//!
//! A prepared LP owns its [`LpProblem`] and the standard-form instance
//! lowered from it, and keeps the two in step: every patch
//! ([`PreparedLp::set_objective_coeff`], [`PreparedLp::set_rhs`],
//! [`PreparedLp::set_bounds`], [`PreparedLp::set_column`]) edits the
//! problem and writes exactly the bits a fresh lowering of the edited
//! problem would produce into the instance. The contract is therefore
//! simple: **[`PreparedLp::solve`] returns what
//! `self.problem().solve_warm(hint)` would, bit for bit** — same values,
//! same objective, same counters, same [`WarmStart`].
//!
//! Patches that cannot be written in place — a right-hand side whose sign
//! flips (which changes the row's slack/artificial structure), a bound
//! that changes which of its ends are finite, a column that outgrows the
//! room it was built with, invalid input — mark the instance stale, and
//! the next solve re-lowers from the problem first (reporting invalid
//! input the way [`LpProblem::solve`] does). Correctness never depends on
//! a patch being expressible; only the saving does.
//!
//! The final factorization of each solve is kept as well: a solve hinted
//! with the basis the previous one returned, over an unchanged matrix,
//! starts from that factorization instead of recomputing it (a chain of
//! probes seeded from one another). Factorizing is a pure function of matrix and basis, so this
//! too changes the work, never the result.

use crate::error::SolverError;
use crate::problem::{ConstraintId, LpProblem, VarId, VarMap, WarmStart};
use crate::revised::{Instance, KeptLu};
use crate::simplex::{LpSolution, SolveStats};

/// One basic column of a caller-written basis, named in problem terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasisEntry {
    /// The column of a variable with at least one finite bound.
    Var(VarId),
    /// The slack (`<=`) or surplus (`>=`) column of a constraint.
    Slack(ConstraintId),
}

/// An [`LpProblem`] lowered once and re-solved by patching; see the module
/// docs for the equivalence contract.
#[derive(Debug, Clone)]
pub struct PreparedLp {
    lp: LpProblem,
    mapping: Vec<VarMap>,
    inst: Instance,
    /// Per row: whether its lowered right-hand side was negative when the
    /// instance was built, i.e. the row is stored negated.
    negated: Vec<bool>,
    /// Stored rows differ from the problem's term lists (see
    /// `Lowering::irregular`), so bound and column patches re-lower.
    irregular: bool,
    /// Some patch since the last build could not be written in place.
    stale: bool,
    kept: Option<KeptLu>,
}

impl PreparedLp {
    /// Validates and lowers `lp`. Errors as [`LpProblem::solve`] would on
    /// invalid input.
    pub fn new(lp: LpProblem) -> Result<PreparedLp, SolverError> {
        let lowering = lp.lower()?;
        Ok(PreparedLp {
            inst: Instance::build(&lowering.std),
            negated: lowering.std.rows.iter().map(|row| row.2 < 0.0).collect(),
            mapping: lowering.mapping,
            irregular: lowering.irregular,
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
        self.stale |= !obj.is_finite();
        if !self.stale {
            let cost = self.lp.cost_sign() * obj;
            self.mapping[var.index()].write_cost(cost, &mut self.inst.costs);
        }
    }

    /// Overwrites the right-hand side of `constraint`.
    pub fn set_rhs(&mut self, constraint: ConstraintId, rhs: f64) {
        self.lp.set_rhs(constraint, rhs);
        self.stale |= !rhs.is_finite();
        self.refresh_row(constraint.0);
    }

    /// Overwrites the bounds of `var`.
    pub fn set_bounds(&mut self, var: VarId, lower: f64, upper: f64) {
        self.lp.set_bounds(var, lower, upper);
        let old = self.mapping[var.index()];
        let new = VarMap::of(lower, upper, old.col());
        self.stale |= self.irregular
            || lower.is_nan()
            || upper.is_nan()
            || lower > upper
            || std::mem::discriminant(&old) != std::mem::discriminant(&new);
        if self.stale {
            return;
        }
        self.mapping[var.index()] = new;
        if let VarMap::Shifted { col, shift } = new {
            self.inst.upper[col] = upper - shift;
        }
        // The shift moved: every row the variable appears in absorbs it.
        let rows: Vec<usize> = self.inst.col(old.col()).map(|(row, _)| row).collect();
        for row in rows {
            self.refresh_row(row);
        }
    }

    /// Replaces the coefficients of `var` across all constraints: it ends
    /// up with exactly the given `(constraint, coefficient)` entries
    /// (zeros meaning absent) and appears nowhere else. In-place when the
    /// entries come in ascending constraint order and fit the room the
    /// column had when the LP was prepared.
    pub fn set_column(&mut self, var: VarId, entries: &[(ConstraintId, f64)]) {
        let v = var.index();
        let map = self.mapping[v];
        let in_step = !self.stale && !self.irregular;
        // Rows that currently mention the variable: the stored column when
        // it mirrors the problem, else every row.
        let old_rows: Vec<usize> = if in_step {
            self.inst.col(map.col()).map(|(row, _)| row).collect()
        } else {
            (0..self.lp.cons.len()).collect()
        };
        for &row in &old_rows {
            self.lp.cons[row].terms.retain(|&(vi, _)| vi != v);
        }
        for &(c, coeff) in entries {
            if coeff != 0.0 {
                self.lp.cons[c.0].terms.push((v, coeff));
            }
        }
        self.stale |= !in_step
            || matches!(map, VarMap::Free { .. })
            || entries.iter().any(|e| !e.1.is_finite())
            || !entries.windows(2).all(|w| w[0].0 .0 < w[1].0 .0);
        if self.stale {
            return;
        }
        let stored: Vec<(usize, f64)> = entries
            .iter()
            .map(|&(c, coeff)| {
                let mirrored = matches!(map, VarMap::Mirrored { .. });
                let flip = mirrored != self.negated[c.0];
                (c.0, if flip { -coeff } else { coeff })
            })
            .collect();
        if !self.inst.set_col(map.col(), &stored) {
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
        let rhs = self.lp.lowered_rhs(i, &self.mapping);
        if (rhs < 0.0) != self.negated[i] {
            self.stale = true;
        } else {
            self.inst.b[i] = if self.negated[i] { -rhs } else { rhs };
        }
    }

    /// The basis made of `entries` (at most one per constraint, any order),
    /// every other column resting at its lower standard bound, as a hint
    /// for [`PreparedLp::solve`]. `None` when an entry has no single
    /// standard column (a free variable, the slack of an equality row) or
    /// a pending patch still waits for a re-lowering. The solver completes
    /// the hint like a harvested one — a dependent entry is dropped, a row
    /// left without a column gets its slack, surplus or artificial — and
    /// then classifies it: a repeated entry, or a completed basis neither
    /// primal nor dual feasible, cold-starts.
    pub fn basis_hint(&self, entries: &[BasisEntry]) -> Option<WarmStart> {
        if self.stale {
            return None;
        }
        let column = |entry: &BasisEntry| match *entry {
            BasisEntry::Var(v) => match self.mapping[v.index()] {
                VarMap::Free { .. } => None,
                map => Some(map.col()),
            },
            BasisEntry::Slack(c) => self.inst.slack_col(c.0),
        };
        let mut basis = entries.iter().map(column).collect::<Option<Vec<_>>>()?;
        basis.sort_unstable();
        Some(WarmStart {
            basis,
            at_upper: vec![false; self.inst.ntot()],
        })
    }

    /// The basic columns of `basis`, a [`WarmStart`] a solve of this LP
    /// returned, in problem terms. Columns without such a name — half of a
    /// free variable, an artificial — are left out; a hint written from
    /// the rest is completed in their rows.
    ///
    /// Only the basic columns are kept, not which bound each nonbasic
    /// column rests at, so this inverts [`PreparedLp::basis_hint`] only
    /// where every nonbasic column rests at its lower bound. A hint written
    /// back from an optimum with a column at a finite upper bound puts that
    /// column at its lower bound: another point, classified like any hint.
    pub fn basis_entries(&self, basis: &WarmStart) -> Vec<BasisEntry> {
        let mut named = vec![None; self.inst.ntot()];
        for (v, map) in self.mapping.iter().enumerate() {
            if !matches!(map, VarMap::Free { .. }) {
                named[map.col()] = Some(BasisEntry::Var(VarId(v)));
            }
        }
        for i in 0..self.lp.num_constraints() {
            if let Some(c) = self.inst.slack_col(i) {
                named[c] = Some(BasisEntry::Slack(ConstraintId(i)));
            }
        }
        (basis.basis.iter())
            .filter_map(|&c| named.get(c).copied().flatten())
            .collect()
    }

    /// Solves the current problem, warm-started from `hint` when given —
    /// the same classification of hints, verdicts, counters and returned
    /// basis as [`LpProblem::solve_warm`] on [`PreparedLp::problem`], by
    /// construction: both run one solve body over the lowered instance.
    /// Errors — a [`SolverError::Numerical`] collapse among them — carry
    /// the pivot counters spent reaching the verdict.
    pub fn solve(
        &mut self,
        hint: Option<&WarmStart>,
    ) -> Result<(LpSolution, WarmStart), (SolverError, SolveStats)> {
        if self.stale {
            *self = PreparedLp::new(self.lp.clone()).map_err(|e| (e, SolveStats::default()))?;
        }
        (self.lp).solve_lowered(&self.inst, &self.mapping, hint, &mut self.kept)
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

    fn assert_same(prep: &mut PreparedLp, hint: Option<&WarmStart>) -> WarmStart {
        let (fresh, fresh_basis) = prep.problem().solve_warm(hint).unwrap();
        let (sol, basis) = prep.solve(hint).unwrap();
        assert_eq!(sol.values, fresh.values);
        assert_eq!(sol.objective.to_bits(), fresh.objective.to_bits());
        assert_eq!(sol.stats, fresh.stats);
        assert_eq!(basis.basic_columns(), fresh_basis.basic_columns());
        assert_eq!(basis.at_upper_flags(), fresh_basis.at_upper_flags());
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
        basis = assert_same(&mut prep, Some(&basis));
        prep.set_bounds(x, 0.5, 2.0);
        basis = assert_same(&mut prep, Some(&basis));
        prep.set_column(y, &[(c0, 2.0)]);
        basis = assert_same(&mut prep, Some(&basis));
        assert!(!prep.stale, "every patch above is expressible in place");
        // A sign flip is not: the row's structure changes.
        prep.set_rhs(c1, 0.5);
        assert!(prep.stale);
        assert_same(&mut prep, Some(&basis));
        assert!(!prep.stale);
    }

    #[test]
    fn invalid_patches_surface_at_solve() {
        let (lp, [x, _], _) = small();
        let mut prep = PreparedLp::new(lp).unwrap();
        prep.set_bounds(x, 2.0, 1.0);
        let (err, _) = prep.solve(None).unwrap_err();
        assert_eq!(err, SolverError::InvalidBounds { var: "x".into() });
        // Repairing the input repairs the prepared LP.
        prep.set_bounds(x, 1.0, 2.0);
        assert_same(&mut prep, None);
    }

    #[test]
    fn chained_solves_reuse_the_factorization() {
        let (lp, [x, y], _) = small();
        let mut prep = PreparedLp::new(lp).unwrap();
        let (_, basis) = prep.solve(None).unwrap();
        assert!(prep.kept.is_some());
        prep.set_objective_coeff(x, 1.0);
        assert_same(&mut prep, Some(&basis));
        // A matrix patch drops it.
        prep.set_column(y, &[]);
        assert!(prep.kept.is_none());
        assert_same(&mut prep, Some(&basis));
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
        let (cold, _) = prep.solve(None).unwrap();
        assert!(cold.stats.pivots_phase1 > 0, "{:?}", cold.stats);

        // The origin, written down from the LP's shape: primal feasible.
        let origin = prep.basis_hint(&[BasisEntry::Var(x), BasisEntry::Slack(budget)]);
        let (warm, optimal) = prep.solve(origin.as_ref()).unwrap();
        assert_eq!(warm.objective.to_bits(), cold.objective.to_bits());
        assert_eq!((warm.stats.warm_hits, warm.stats.pivots_phase1), (1, 0));
        // Read back in problem terms, the optimum hints its own vertex.
        let entries = prep.basis_entries(&optimal);
        assert_eq!(entries.len(), 2, "{entries:?}");
        let (again, _) = prep.solve(prep.basis_hint(&entries).as_ref()).unwrap();
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
            let hint = prep.basis_hint(entries);
            let (sol, _) = prep.solve(hint.as_ref()).unwrap();
            assert_eq!(sol.objective.to_bits(), cold.objective.to_bits());
            let stats = sol.stats;
            assert_eq!(
                (stats.warm_hits, stats.pivots_phase1),
                (1, 0),
                "{entries:?}"
            );
        }

        // A repeated column still cold-starts.
        let hint = prep.basis_hint(&[BasisEntry::Var(x), BasisEntry::Var(x)]);
        let (sol, _) = prep.solve(hint.as_ref()).unwrap();
        assert_eq!(sol.objective.to_bits(), cold.objective.to_bits());
        assert_eq!((sol.stats.warm_hits, sol.stats.warm_falls_back), (0, 1));

        // Entries without a single standard column, and a stale instance.
        let mut lp = LpProblem::new(Sense::Minimize);
        let z = lp.add_var("z", f64::NEG_INFINITY, f64::INFINITY, 1.0);
        let tie = lp.add_constraint(&[(z, 1.0)], Cmp::Eq, 1.0);
        let pinned = PreparedLp::new(lp).unwrap();
        assert!(pinned.basis_hint(&[BasisEntry::Var(z)]).is_none());
        assert!(pinned.basis_hint(&[BasisEntry::Slack(tie)]).is_none());
        prep.set_rhs(floor, -1.0);
        assert!(prep.stale);
        assert!(prep.basis_hint(&[BasisEntry::Slack(budget)]).is_none());
    }

    #[test]
    fn read_back_bases_keep_no_bound_sides() {
        // `small`'s only optimum, x = 3 and y = 1, rests `x` at its upper
        // bound.
        let (lp, [x, _], _) = small();
        let mut prep = PreparedLp::new(lp).unwrap();
        let (sol, optimal) = prep.solve(None).unwrap();
        assert_eq!(sol.value(x), 3.0);
        assert!(optimal.at_upper_flags().contains(&true));
        let entries = prep.basis_entries(&optimal);
        assert!(!entries.contains(&BasisEntry::Var(x)), "{entries:?}");

        // Written back, the hint rests `x` at zero: another point, which
        // the solve pivots away from to the same optimum.
        let hint = prep.basis_hint(&entries).unwrap();
        assert!(!hint.at_upper_flags().contains(&true));
        let (again, _) = prep.solve(Some(&hint)).unwrap();
        assert_eq!(again.objective.to_bits(), sol.objective.to_bits());
        assert!(again.stats.total_pivots() > 0, "{:?}", again.stats);
    }
}
