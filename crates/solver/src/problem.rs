//! Linear-program builder.
//!
//! [`LpProblem`] collects variables (with bounds and objective coefficients)
//! and linear constraints, then lowers the problem to the standard form
//! `min c'x` subject to `Ax {<=,>=,=} b, 0 <= x <= u` consumed by the
//! simplex engines in [`crate::revised`] (the default) and
//! [`crate::simplex`] (the dense cross-check oracle). The lowering emits
//! sparse rows and handles:
//!
//! - maximization (objective negation),
//! - finite lower bounds (variable shifting),
//! - finite upper bounds (carried on the column as `u = upper - lower`;
//!   never an extra row — the revised engine's ratio test handles bounds
//!   implicitly, the dense oracle re-expands them to rows on its side),
//! - free variables (split into a difference of two nonnegative variables).
//!
//! Because bounds ride on columns, the standard-form row count `m` equals
//! the user-facing constraint count exactly — the probe/prepass LPs (slack
//! variables in `[0, 1]`) that dominate Gavel's hierarchical runtime pay no
//! basis row per bounded variable.

use crate::error::SolverError;
use crate::revised::{self, Instance, KeptLu};
use crate::simplex::{self, LpSolution, SolveStats, StandardForm};

/// An optimal simplex basis state returned by [`LpProblem::solve_warm`],
/// reusable as a hint for the next solve of a structurally similar
/// problem. Carries the basic column per standard-form row plus the bound
/// side (lower or upper) each nonbasic column rests at, so bounded-variable
/// vertices round-trip exactly.
///
/// The warm-start contract: a hint is *never* required to be valid. A
/// singular or partial hint is completed: a dependent column is dropped
/// and a row left without one gets its slack, surplus or artificial. If
/// the hint does not fit the next problem (more columns than rows, a
/// column out of range or named twice), or the completed basis is neither
/// primal feasible (warm phase-2 continuation) nor dual feasible
/// (dual-simplex reoptimization) under the new data, or the warm solve
/// fails part-way, the solver silently falls back to a cold start on a
/// full pivot budget of its own (the one exception: an infeasibility
/// *proved* by the dual phase from a validated dual-feasible basis is
/// returned directly — see [`crate::revised`]). A hint thus never changes
/// the feasibility verdict or the optimal objective; on problems with
/// multiple optimal solutions it may steer which optimal vertex is
/// returned. What the *cold* solve then fails with, a numerical collapse
/// ([`SolverError::Numerical`]) included, is the caller's error.
#[derive(Debug, Clone)]
pub struct WarmStart {
    pub(crate) basis: Vec<usize>,
    /// Bound side per standard-form column (structural, slack, artificial):
    /// `true` when the column was nonbasic at its upper bound.
    pub(crate) at_upper: Vec<bool>,
}

impl WarmStart {
    /// Number of basic columns recorded (one per standard-form row in a
    /// solve's result; a caller-written hint may name fewer).
    pub fn len(&self) -> usize {
        self.basis.len()
    }

    /// Whether the recorded basis is empty (a problem with no rows).
    pub fn is_empty(&self) -> bool {
        self.basis.is_empty()
    }

    /// The recorded basic columns, in canonical (sorted) order. Two solves
    /// that report the same basis state here (and the same
    /// [`WarmStart::at_upper_flags`]) return bit-identical solutions — the
    /// engine recomputes values from a canonical refactorization of the
    /// final basis, so they cannot depend on the pivot path.
    pub fn basic_columns(&self) -> &[usize] {
        &self.basis
    }

    /// Bound side per standard-form column: `true` when nonbasic at its
    /// upper bound. See [`WarmStart::basic_columns`].
    pub fn at_upper_flags(&self) -> &[bool] {
        &self.at_upper
    }
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Left-hand side must be less than or equal to the right-hand side.
    Le,
    /// Left-hand side must be greater than or equal to the right-hand side.
    Ge,
    /// Left-hand side must equal the right-hand side.
    Eq,
}

/// Opaque handle to a variable of an [`LpProblem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Returns the dense index of this variable within its problem.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Opaque handle to a constraint of an [`LpProblem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConstraintId(pub(crate) usize);

/// A variable's name, formatted only when an error or a debug assertion
/// needs it: the policy LPs add thousands of `x_k_j` variables per solve
/// and never look at their names on the success path.
#[derive(Debug, Clone)]
pub(crate) enum VarName {
    Text(String),
    /// `prefix_i`, or `prefix_i_j` with a second index.
    Indexed(&'static str, usize, Option<usize>),
}

impl std::fmt::Display for VarName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            VarName::Text(ref name) => f.write_str(name),
            VarName::Indexed(prefix, i, None) => write!(f, "{prefix}_{i}"),
            VarName::Indexed(prefix, i, Some(j)) => write!(f, "{prefix}_{i}_{j}"),
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Var {
    pub(crate) name: VarName,
    pub(crate) lower: f64,
    pub(crate) upper: f64,
    pub(crate) obj: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    pub(crate) terms: Vec<(usize, f64)>,
    pub(crate) cmp: Cmp,
    pub(crate) rhs: f64,
}

/// A linear program under construction.
///
/// Variables are added with [`LpProblem::add_var`] and referenced through the
/// returned [`VarId`]. The problem owns its objective sense; objective
/// coefficients are attached to variables.
#[derive(Debug, Clone)]
pub struct LpProblem {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<Var>,
    pub(crate) cons: Vec<Constraint>,
}

impl LpProblem {
    /// Creates an empty problem with the given optimization sense.
    pub fn new(sense: Sense) -> Self {
        LpProblem {
            sense,
            vars: Vec::new(),
            cons: Vec::new(),
        }
    }

    /// Adds a variable with bounds `[lower, upper]` and objective coefficient
    /// `obj`.
    ///
    /// `lower` may be `f64::NEG_INFINITY` and `upper` may be
    /// `f64::INFINITY`. Invalid bound pairs are reported by
    /// [`LpProblem::solve`], not here, so building can stay infallible.
    pub fn add_var(&mut self, name: &str, lower: f64, upper: f64, obj: f64) -> VarId {
        self.push_var(VarName::Text(name.to_string()), lower, upper, obj)
    }

    /// [`LpProblem::add_var`] for one of a family of variables: the name
    /// `prefix_i` is formatted only if an error message needs it, so
    /// building allocates nothing per variable.
    pub fn add_var_indexed(
        &mut self,
        prefix: &'static str,
        i: usize,
        lower: f64,
        upper: f64,
        obj: f64,
    ) -> VarId {
        self.push_var(VarName::Indexed(prefix, i, None), lower, upper, obj)
    }

    /// [`LpProblem::add_var_indexed`] with two indices: `prefix_i_j`.
    pub fn add_var_indexed2(
        &mut self,
        prefix: &'static str,
        (i, j): (usize, usize),
        lower: f64,
        upper: f64,
        obj: f64,
    ) -> VarId {
        self.push_var(VarName::Indexed(prefix, i, Some(j)), lower, upper, obj)
    }

    fn push_var(&mut self, name: VarName, lower: f64, upper: f64, obj: f64) -> VarId {
        self.vars.push(Var {
            name,
            lower,
            upper,
            obj,
        });
        VarId(self.vars.len() - 1)
    }

    /// Overwrites the objective coefficient of `var`.
    pub fn set_objective_coeff(&mut self, var: VarId, obj: f64) {
        self.vars[var.0].obj = obj;
    }

    /// Returns the current objective coefficient of `var`.
    pub fn objective_coeff(&self, var: VarId) -> f64 {
        self.vars[var.0].obj
    }

    /// Adds `delta` to the objective coefficient of `var`.
    pub fn add_objective_coeff(&mut self, var: VarId, delta: f64) {
        self.vars[var.0].obj += delta;
    }

    /// Overwrites the bounds of `var`.
    pub fn set_bounds(&mut self, var: VarId, lower: f64, upper: f64) {
        self.vars[var.0].lower = lower;
        self.vars[var.0].upper = upper;
    }

    /// Returns the current bounds of `var`.
    pub fn bounds(&self, var: VarId) -> (f64, f64) {
        (self.vars[var.0].lower, self.vars[var.0].upper)
    }

    /// Adds the constraint `sum(coeff * var) cmp rhs`.
    ///
    /// Repeated `VarId`s in `terms` are allowed; their coefficients are
    /// summed during lowering.
    pub fn add_constraint(&mut self, terms: &[(VarId, f64)], cmp: Cmp, rhs: f64) -> ConstraintId {
        self.cons.push(Constraint {
            terms: terms.iter().map(|&(v, c)| (v.0, c)).collect(),
            cmp,
            rhs,
        });
        ConstraintId(self.cons.len() - 1)
    }

    /// Overwrites the right-hand side of `constraint`.
    pub fn set_rhs(&mut self, constraint: ConstraintId, rhs: f64) {
        self.cons[constraint.0].rhs = rhs;
    }

    /// Returns the current right-hand side of `constraint`.
    pub fn rhs(&self, constraint: ConstraintId) -> f64 {
        self.cons[constraint.0].rhs
    }

    /// Number of variables added so far.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.cons.len()
    }

    /// Objective sense of this problem.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Solves the problem.
    ///
    /// Runs the sparse revised simplex ([`crate::revised`]), the only
    /// engine behind this entry point. Returns the optimal solution, or a
    /// [`SolverError`] describing infeasibility, unboundedness, or
    /// numerical failure (reported, never retried on another engine).
    pub fn solve(&self) -> Result<LpSolution, SolverError> {
        let (sol, _) = self.solve_warm(None)?;
        Ok(sol)
    }

    /// Solves with an optional warm-start hint, returning the optimal
    /// basis alongside the solution for the next solve.
    ///
    /// Pass the [`WarmStart`] from a previous solve of a structurally
    /// identical problem (same variables in the same order, same
    /// constraint shapes — coefficients and right-hand sides may differ)
    /// to skip phase 1 and resume phase 2 from the old vertex. Unusable
    /// hints are ignored; see [`WarmStart`]. Errors as [`LpProblem::solve`]
    /// does.
    pub fn solve_warm(
        &self,
        hint: Option<&WarmStart>,
    ) -> Result<(LpSolution, WarmStart), SolverError> {
        let lowering = self.lower()?;
        let inst = Instance::build(&lowering.std);
        self.solve_lowered(&inst, &lowering.mapping, hint, &mut None)
            .map_err(|(e, _)| e)
    }

    /// The one solve body, shared with [`crate::PreparedLp::solve`]: runs
    /// the revised simplex over `inst` (this problem lowered through
    /// `mapping`) and turns its outcome into the user-facing solution and
    /// basis token. Errors carry the pivot counters spent on the verdict.
    pub(crate) fn solve_lowered(
        &self,
        inst: &Instance,
        mapping: &[VarMap],
        hint: Option<&WarmStart>,
        kept: &mut Option<KeptLu>,
    ) -> Result<(LpSolution, WarmStart), (SolverError, SolveStats)> {
        let hint = hint.map(|h| (h.basis.as_slice(), h.at_upper.as_slice()));
        let out = revised::solve_instance(inst, hint, kept)?;
        let sol = self.recover(mapping, &out.x, out.objective, out.stats);
        #[cfg(debug_assertions)]
        self.cross_check(&sol);
        let basis = WarmStart {
            basis: out.basis,
            at_upper: out.at_upper,
        };
        Ok((sol, basis))
    }

    /// Solves with the dense two-phase tableau ([`crate::simplex`]) — the
    /// original engine, kept as an independently-implemented oracle for
    /// differential tests and debug-mode cross-checks of the revised
    /// simplex. Not for production use: it scales as `O(m * width)` per
    /// pivot where the revised engine pays `O(nnz)`.
    pub fn solve_dense(&self) -> Result<LpSolution, SolverError> {
        let lowering = self.lower()?;
        let (raw, objective_std, stats) = simplex::solve_standard(&lowering.std)?;
        Ok(self.recover(&lowering.mapping, &raw, objective_std, stats))
    }

    /// Maps a standard-form optimum back to this problem's variables and
    /// objective.
    fn recover(
        &self,
        mapping: &[VarMap],
        raw: &[f64],
        objective_std: f64,
        stats: SolveStats,
    ) -> LpSolution {
        // The standard form always minimizes; undo the lowering's sign and
        // constant shifts to report the user-facing objective.
        let mut objective = objective_std + self.objective_constant(mapping);
        if self.sense == Sense::Maximize {
            objective = -objective;
        }
        let value = |m: &VarMap| match *m {
            VarMap::Shifted { col, shift } => shift + raw[col],
            VarMap::Mirrored { col, upper } => upper - raw[col],
            VarMap::Free { pos, neg } => raw[pos] - raw[neg],
        };
        LpSolution {
            values: mapping.iter().map(value).collect(),
            objective,
            stats,
        }
    }

    /// Debug-mode oracle: when `GAVEL_LP_CROSSCHECK` is on (set to anything
    /// but the empty string or `0`), re-solve with the dense tableau (which
    /// expands column bounds into explicit rows, independently of the
    /// bounded-variable path) and assert the engines agree on the
    /// objective. Runs on *every* revised-engine solve —
    /// cold, warm-continued, and dual-reoptimized alike, since
    /// [`LpProblem::solve`] and [`LpProblem::solve_warm`] share this exit
    /// path — and additionally asserts the returned point respects every
    /// variable bound and constraint of the original problem.
    #[cfg(debug_assertions)]
    fn cross_check(&self, sol: &LpSolution) {
        if !flag_on(std::env::var_os("GAVEL_LP_CROSSCHECK")) {
            return;
        }
        // A debug-only cross-check: disagreeing engines are the failure it
        // exists to report.
        let dense = self
            .solve_dense()
            .expect("dense oracle failed where the revised simplex succeeded");
        let scale = 1.0 + sol.objective.abs().max(dense.objective.abs());
        debug_assert!(
            (sol.objective - dense.objective).abs() <= 1e-6 * scale,
            "revised/dense objective mismatch: {} vs {}",
            sol.objective,
            dense.objective,
        );
        for (v, value) in self.vars.iter().zip(&sol.values) {
            debug_assert!(
                *value >= v.lower - 1e-6 && *value <= v.upper + 1e-6,
                "variable `{}` = {value} violates bounds [{}, {}]",
                v.name,
                v.lower,
                v.upper,
            );
        }
        for (i, c) in self.cons.iter().enumerate() {
            let lhs: f64 = c
                .terms
                .iter()
                .map(|&(v, coeff)| coeff * sol.values[v])
                .sum();
            let tol = 1e-6 * (1.0 + c.rhs.abs());
            let ok = match c.cmp {
                Cmp::Le => lhs <= c.rhs + tol,
                Cmp::Ge => lhs >= c.rhs - tol,
                Cmp::Eq => (lhs - c.rhs).abs() <= tol,
            };
            debug_assert!(ok, "constraint {i} violated: lhs {lhs} vs rhs {}", c.rhs);
        }
    }

    fn validate(&self) -> Result<(), SolverError> {
        for v in &self.vars {
            if v.lower.is_nan() || v.upper.is_nan() || v.lower > v.upper {
                return Err(SolverError::InvalidBounds {
                    var: v.name.to_string(),
                });
            }
            if !v.obj.is_finite() {
                return Err(SolverError::NonFiniteInput {
                    context: format!("objective coefficient of `{}`", v.name),
                });
            }
        }
        for (i, c) in self.cons.iter().enumerate() {
            if !c.rhs.is_finite() {
                return Err(SolverError::NonFiniteInput {
                    context: format!("rhs of constraint {i}"),
                });
            }
            for &(v, coeff) in &c.terms {
                if v >= self.vars.len() {
                    return Err(SolverError::UnknownVariable);
                }
                if !coeff.is_finite() {
                    return Err(SolverError::NonFiniteInput {
                        context: format!(
                            "coefficient of `{}` in constraint {i}",
                            self.vars[v].name
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Sign that turns this problem's objective into the standard form's
    /// minimization.
    pub(crate) fn cost_sign(&self) -> f64 {
        match self.sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        }
    }

    /// Constant the variable shifts add to the standard-form objective
    /// (already sign-adjusted for maximization).
    pub(crate) fn objective_constant(&self, mapping: &[VarMap]) -> f64 {
        let mut obj_const = 0.0;
        for (v, m) in self.vars.iter().zip(mapping) {
            match *m {
                VarMap::Shifted { shift, .. } => obj_const += v.obj * shift,
                VarMap::Mirrored { upper, .. } => obj_const += v.obj * upper,
                VarMap::Free { .. } => {}
            }
        }
        self.cost_sign() * obj_const
    }

    /// Right-hand side of constraint `i` in standard columns: the user's
    /// value minus what the variable shifts already contribute, subtracted
    /// in term order.
    pub(crate) fn lowered_rhs(&self, i: usize, mapping: &[VarMap]) -> f64 {
        let c = &self.cons[i];
        let mut rhs = c.rhs;
        for &(vi, coeff) in &c.terms {
            match mapping[vi] {
                VarMap::Shifted { shift, .. } => rhs -= coeff * shift,
                VarMap::Mirrored { upper, .. } => rhs -= coeff * upper,
                VarMap::Free { .. } => {}
            }
        }
        rhs
    }

    /// Validates the problem and lowers it to standard form.
    pub(crate) fn lower(&self) -> Result<Lowering, SolverError> {
        self.validate()?;
        let n = self.vars.len();
        // Per original variable: how it maps into standard columns, with
        // finite ranges carried on the column.
        let mut mapping = Vec::with_capacity(n);
        let mut col_upper: Vec<f64> = Vec::new();
        for v in &self.vars {
            let m = VarMap::of(v.lower, v.upper, col_upper.len());
            m.push_uppers(v.upper, &mut col_upper);
            mapping.push(m);
        }
        let ncols = col_upper.len();

        // Objective in standard columns (minimization).
        let sign = self.cost_sign();
        let mut costs = vec![0.0; ncols];
        for (v, m) in self.vars.iter().zip(&mapping) {
            m.write_cost(sign * v.obj, &mut costs);
        }

        let mut rows = Vec::with_capacity(self.cons.len());
        let mut terms: Vec<(usize, f64)> = Vec::new();
        let mut irregular = false;
        for (i, c) in self.cons.iter().enumerate() {
            terms.clear();
            for &(vi, coeff) in &c.terms {
                match mapping[vi] {
                    VarMap::Shifted { col, .. } => terms.push((col, coeff)),
                    VarMap::Mirrored { col, .. } => terms.push((col, -coeff)),
                    VarMap::Free { pos, neg } => {
                        terms.push((pos, coeff));
                        terms.push((neg, -coeff));
                    }
                }
            }
            // Merge duplicate columns (repeated VarIds in the input) so
            // each row carries unique, sorted terms; drop exact zeros.
            terms.sort_unstable_by_key(|&(col, _)| col);
            let mut merged: Vec<(usize, f64)> = Vec::with_capacity(terms.len());
            for &(col, coeff) in &terms {
                match merged.last_mut() {
                    Some((last, acc)) if *last == col => *acc += coeff,
                    _ => merged.push((col, coeff)),
                }
            }
            merged.retain(|&(_, coeff)| coeff != 0.0);
            irregular |= merged.len() != terms.len();
            rows.push((merged, c.cmp, self.lowered_rhs(i, &mapping)));
        }

        Ok(Lowering {
            std: StandardForm {
                ncols,
                costs,
                rows,
                upper: col_upper,
            },
            mapping,
            irregular,
        })
    }

    /// Number of rows the problem lowers to in standard form. With bounds
    /// carried implicitly on columns this equals
    /// [`LpProblem::num_constraints`] exactly; exposed so tests and
    /// diagnostics can assert no hidden rows are ever emitted.
    pub fn num_standard_rows(&self) -> Result<usize, SolverError> {
        Ok(self.lower()?.std.rows.len())
    }
}

impl std::ops::Index<VarId> for LpSolution {
    type Output = f64;

    fn index(&self, var: VarId) -> &f64 {
        &self.values[var.0]
    }
}

/// How one user-facing variable maps into standard-form columns.
#[derive(Debug, Clone, Copy)]
pub(crate) enum VarMap {
    Shifted { col: usize, shift: f64 },
    Mirrored { col: usize, upper: f64 },
    Free { pos: usize, neg: usize },
}

impl VarMap {
    /// How a variable with bounds `[lower, upper]` maps into standard
    /// columns starting at `col`. The kind depends only on which bounds
    /// are finite.
    pub(crate) fn of(lower: f64, upper: f64, col: usize) -> VarMap {
        if lower.is_finite() {
            // x = lower + x', x' in [0, upper - lower] (upper may be
            // +inf): the bound rides on the column, never as a row.
            VarMap::Shifted { col, shift: lower }
        } else if upper.is_finite() {
            // x = upper - x'', x'' >= 0.
            VarMap::Mirrored { col, upper }
        } else {
            // Free: x = x+ - x-.
            VarMap::Free {
                pos: col,
                neg: col + 1,
            }
        }
    }

    /// Appends the upper bounds of this variable's standard columns; for
    /// a shifted variable that is the width `upper - shift` of its range.
    pub(crate) fn push_uppers(&self, upper: f64, col_upper: &mut Vec<f64>) {
        match *self {
            VarMap::Shifted { shift, .. } => col_upper.push(upper - shift),
            VarMap::Mirrored { .. } => col_upper.push(f64::INFINITY),
            VarMap::Free { .. } => col_upper.extend([f64::INFINITY; 2]),
        }
    }

    /// Writes the (sign-adjusted) objective coefficient `cost` of this
    /// variable into its standard columns.
    pub(crate) fn write_cost(&self, cost: f64, costs: &mut [f64]) {
        match *self {
            VarMap::Shifted { col, .. } => costs[col] = 0.0 + cost,
            VarMap::Mirrored { col, .. } => costs[col] = 0.0 - cost,
            VarMap::Free { pos, neg } => {
                costs[pos] = 0.0 + cost;
                costs[neg] = 0.0 - cost;
            }
        }
    }

    /// First standard column of this variable.
    pub(crate) fn col(&self) -> usize {
        match *self {
            VarMap::Shifted { col, .. } | VarMap::Mirrored { col, .. } => col,
            VarMap::Free { pos, .. } => pos,
        }
    }
}

/// The lowered problem: standard form plus enough bookkeeping to recover
/// user-facing values and objectives.
pub(crate) struct Lowering {
    pub(crate) std: StandardForm,
    pub(crate) mapping: Vec<VarMap>,
    /// Some constraint repeats a variable or carries an exact-zero
    /// coefficient, so its stored row differs from its term list.
    pub(crate) irregular: bool,
}

/// The rule every `GAVEL_*` switch follows (see the README table).
#[cfg(debug_assertions)]
fn flag_on(value: Option<std::ffi::OsString>) -> bool {
    value.is_some_and(|v| !v.is_empty() && v != "0")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(debug_assertions)]
    #[test]
    fn crosscheck_flag_is_off_when_unset_empty_or_zero() {
        assert!(!flag_on(None));
        for (value, on) in [("", false), ("0", false), ("1", true), ("off", true)] {
            assert_eq!(flag_on(Some(value.into())), on, "{value:?}");
        }
    }

    #[test]
    fn maximization_with_upper_bounds() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 0.0, 2.0, 3.0);
        let y = lp.add_var("y", 0.0, f64::INFINITY, 2.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        let sol = lp.solve().unwrap();
        assert!((sol.objective - 10.0).abs() < 1e-7, "obj={}", sol.objective);
        assert!((sol[x] - 2.0).abs() < 1e-7);
        assert!((sol[y] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn shifted_lower_bounds() {
        // min x + y subject to x + y >= 5, x >= 1, y >= 2.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", 1.0, f64::INFINITY, 1.0);
        let y = lp.add_var("y", 2.0, f64::INFINITY, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 5.0);
        let sol = lp.solve().unwrap();
        assert!((sol.objective - 5.0).abs() < 1e-7);
        assert!(sol[x] >= 1.0 - 1e-9);
        assert!(sol[y] >= 2.0 - 1e-9);
    }

    #[test]
    fn free_variable() {
        // min |x| style: min y subject to y >= x, y >= -x, x = -3 forced.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 0.0);
        let y = lp.add_var("y", 0.0, f64::INFINITY, 1.0);
        lp.add_constraint(&[(y, 1.0), (x, -1.0)], Cmp::Ge, 0.0);
        lp.add_constraint(&[(y, 1.0), (x, 1.0)], Cmp::Ge, 0.0);
        lp.add_constraint(&[(x, 1.0)], Cmp::Eq, -3.0);
        let sol = lp.solve().unwrap();
        assert!((sol[x] + 3.0).abs() < 1e-7);
        assert!((sol.objective - 3.0).abs() < 1e-7);
    }

    #[test]
    fn negative_lower_bound_mirrored_upper() {
        // Variable with only an upper bound: max x subject to x <= 7.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", f64::NEG_INFINITY, 7.0, 1.0);
        let sol = lp.solve().unwrap();
        assert!((sol[x] - 7.0).abs() < 1e-7);
    }

    #[test]
    fn infeasible_detection() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", 0.0, f64::INFINITY, 1.0);
        lp.add_constraint(&[(x, 1.0)], Cmp::Ge, 5.0);
        lp.add_constraint(&[(x, 1.0)], Cmp::Le, 3.0);
        assert_eq!(lp.solve().unwrap_err(), SolverError::Infeasible);
    }

    #[test]
    fn unbounded_detection() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 0.0, f64::INFINITY, 1.0);
        lp.add_constraint(&[(x, -1.0)], Cmp::Le, 1.0);
        assert_eq!(lp.solve().unwrap_err(), SolverError::Unbounded);
    }

    #[test]
    fn numerical_collapse_is_the_callers_error() {
        // Coefficients spanning eleven orders of magnitude: the cold solve
        // pivots its way to a basis the next refactorization finds
        // floating-point singular. The dense tableau still produces *an*
        // answer for this LP (a finite "optimum", although `x1` can grow
        // without limit), which is exactly what must not stand in silently.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x0 = lp.add_var("x0", 0.0, f64::INFINITY, 0.0);
        let x1 = lp.add_var("x1", 0.0, f64::INFINITY, 1.0);
        let x2 = lp.add_var("x2", 0.0, f64::INFINITY, 1.0);
        lp.add_constraint(&[(x0, 0.08)], Cmp::Le, 1.0);
        lp.add_constraint(&[(x0, 0.001), (x2, 2e6)], Cmp::Le, 1.0);
        lp.add_constraint(&[(x0, 3000.0), (x1, 0.003), (x2, 5e4)], Cmp::Ge, 1.0);
        lp.add_constraint(&[(x0, 1e-4), (x1, 2e4)], Cmp::Ge, 0.0);
        let numerical = |e: &SolverError| matches!(e, SolverError::Numerical { .. });
        let err = lp.solve().unwrap_err();
        assert!(numerical(&err), "{err:?}");
        let (err, spent) = crate::PreparedLp::new(lp).unwrap().solve(None).unwrap_err();
        assert!(numerical(&err), "{err:?}");
        assert!(spent.total_pivots() > 0, "{spent:?}");
    }

    #[test]
    fn invalid_bounds_reported() {
        let mut lp = LpProblem::new(Sense::Minimize);
        lp.add_var("bad", 2.0, 1.0, 0.0);
        assert!(matches!(
            lp.solve().unwrap_err(),
            SolverError::InvalidBounds { .. }
        ));
    }

    #[test]
    fn indexed_names_are_formatted_on_demand() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let s = lp.add_var_indexed("slack", 7, 1.0, 0.0, 0.0);
        let x = lp.add_var_indexed2("x", (3, 1), 2.0, 1.0, 0.0);
        assert_eq!(
            lp.solve().unwrap_err(),
            SolverError::InvalidBounds {
                var: "slack_7".into()
            }
        );
        lp.set_bounds(s, 0.0, 1.0);
        assert_eq!(
            lp.solve().unwrap_err(),
            SolverError::InvalidBounds {
                var: "x_3_1".into()
            }
        );
        lp.set_bounds(x, 0.0, 1.0);
        lp.set_objective_coeff(x, f64::NAN);
        assert_eq!(
            lp.solve().unwrap_err(),
            SolverError::NonFiniteInput {
                context: "objective coefficient of `x_3_1`".into()
            }
        );
    }

    #[test]
    fn bounded_vars_lower_without_extra_rows() {
        // Finite upper bounds ride on columns: the standard form has
        // exactly one row per user constraint, and the solve still honors
        // every bound.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 0.0, 1.0, 3.0);
        let y = lp.add_var("y", 0.5, 2.5, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Le, 3.0);
        assert_eq!(lp.num_standard_rows().unwrap(), lp.num_constraints());
        let sol = lp.solve().unwrap();
        assert!((sol[x] - 1.0).abs() < 1e-9);
        assert!((sol[y] - 2.0).abs() < 1e-9);
        assert!((sol.objective - 5.0).abs() < 1e-9);
    }

    #[test]
    fn duplicate_terms_are_summed() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 0.0, f64::INFINITY, 1.0);
        // 0.5x + 0.5x <= 3  =>  x <= 3.
        lp.add_constraint(&[(x, 0.5), (x, 0.5)], Cmp::Le, 3.0);
        let sol = lp.solve().unwrap();
        assert!((sol[x] - 3.0).abs() < 1e-7);
    }

    #[test]
    fn fixed_variable_via_equal_bounds() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 2.5, 2.5, 1.0);
        let y = lp.add_var("y", 0.0, f64::INFINITY, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        let sol = lp.solve().unwrap();
        assert!((sol[x] - 2.5).abs() < 1e-9);
        assert!((sol[y] - 1.5).abs() < 1e-7);
    }
}
