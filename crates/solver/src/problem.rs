//! Linear-program builder.
//!
//! [`LpProblem`] collects variables (with bounds and objective coefficients)
//! and linear constraints, then lowers the problem to the standard form
//! `min c'x` subject to `Ax {<=,>=,=} b, x >= 0` consumed by the simplex
//! engines in [`crate::revised`] (the default) and [`crate::simplex`] (the
//! differential tests' dense oracle). Every variable has a finite lower
//! bound, so the lowering is one shifted column per variable — standard
//! column `i` is variable `i` — and handles:
//!
//! - maximization (objective negation),
//! - lower bounds (variable shifting, `x = lower + x'`),
//! - finite upper bounds (one row `x' <= upper - lower` each, in variable
//!   order after the user's constraints; both engines read the same rows).
//!
//! A constraint's terms are stored sorted, merged and zero-free, so each
//! stored row is its standard-form row: standard row `i` is constraint `i`
//! for every [`ConstraintId`], and the bound rows follow. They are no
//! constraints of the problem, and nothing a solve reports about rows —
//! [`crate::PreparedLp::row_duals`], [`crate::PreparedLp::basis`] — names
//! them.

use crate::error::SolverError;
use crate::revised::{self, Instance, KeptLu};
use crate::simplex::{self, LpSolution, SolveStats, StandardForm};

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

impl ConstraintId {
    /// Returns the dense index of this constraint within its problem.
    pub fn index(self) -> usize {
        self.0
    }
}

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
    /// `lower` must be finite; `upper` may be `f64::INFINITY`. An infinite
    /// or NaN `lower`, a NaN `upper` and `lower > upper` are reported as
    /// [`SolverError::InvalidBounds`] by [`LpProblem::solve`], not here, so
    /// building can stay infallible.
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
    /// The terms are stored as the standard-form row: sorted by variable,
    /// a repeated `VarId`'s coefficients summed, exact zeros dropped.
    pub fn add_constraint(&mut self, terms: &[(VarId, f64)], cmp: Cmp, rhs: f64) -> ConstraintId {
        let mut terms: Vec<(usize, f64)> = terms.iter().map(|&(v, c)| (v.0, c)).collect();
        normalize(&mut terms);
        self.cons.push(Constraint { terms, cmp, rhs });
        ConstraintId(self.cons.len() - 1)
    }

    /// Makes `entries` the column of variable `v`: drops `v` from `rows`,
    /// which must include every row that mentions it, then adds each
    /// entry to its row and normalizes the row again.
    pub(crate) fn replace_column(
        &mut self,
        v: usize,
        rows: &[usize],
        entries: &[(ConstraintId, f64)],
    ) {
        for &row in rows {
            self.cons[row].terms.retain(|&(vi, _)| vi != v);
        }
        for &(c, coeff) in entries {
            self.cons[c.0].terms.push((v, coeff));
        }
        for &(c, _) in entries {
            normalize(&mut self.cons[c.0].terms);
        }
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
    /// numerical failure (reported, never retried on another engine). A
    /// warm-started solve, or a re-solve after patches, goes through a
    /// [`crate::PreparedLp`] instead.
    pub fn solve(&self) -> Result<LpSolution, SolverError> {
        self.solve_lowered(&Instance::build(&self.lower()?), None, &mut None)
    }

    /// The one solve body, shared by [`LpProblem::solve`] and
    /// [`crate::PreparedLp::solve`]: runs the revised simplex over `inst`
    /// (this problem, lowered) from the basic columns `hint`, if given, and
    /// turns its outcome into the user-facing solution.
    pub(crate) fn solve_lowered(
        &self,
        inst: &Instance,
        hint: Option<&[usize]>,
        kept: &mut Option<KeptLu>,
    ) -> Result<LpSolution, SolverError> {
        let out = revised::solve_instance(inst, hint, kept)?;
        let sol = self.recover(&out.x, out.objective, out.stats);
        #[cfg(debug_assertions)]
        self.check_stated(&sol);
        Ok(sol)
    }

    /// Solves with the dense two-phase tableau ([`crate::simplex`]) — the
    /// original engine, kept as an independently-implemented oracle for
    /// the differential tests of the revised simplex. Not for production
    /// use: it scales as `O(m * width)` per pivot where the revised engine
    /// pays `O(nnz)`.
    pub fn solve_dense(&self) -> Result<LpSolution, SolverError> {
        let (raw, objective_std, stats) = simplex::solve_standard(&self.lower()?)?;
        Ok(self.recover(&raw, objective_std, stats))
    }

    /// Maps a standard-form optimum back to this problem's variables and
    /// objective.
    fn recover(&self, raw: &[f64], objective_std: f64, stats: SolveStats) -> LpSolution {
        // The standard form always minimizes; undo the lowering's sign and
        // shifts to report the user-facing objective.
        let mut shifts = 0.0;
        for v in &self.vars {
            shifts += v.obj * v.lower;
        }
        let mut objective = objective_std + self.cost_sign() * shifts;
        if self.sense == Sense::Maximize {
            objective = -objective;
        }
        LpSolution {
            values: self
                .vars
                .iter()
                .zip(raw)
                .map(|(v, x)| v.lower + x)
                .collect(),
            objective,
            stats,
        }
    }

    /// Debug builds check every solution, after the engine certified its
    /// standard-form optimum, against the problem as stated: each variable
    /// within its bounds to `1e-6`, each row within `1e-6·(1 + |rhs|)`,
    /// and the objective equal to `Σ c_v x_v` within `1e-6·(1 + max)`.
    #[cfg(debug_assertions)]
    fn check_stated(&self, sol: &LpSolution) {
        for (v, value) in self.vars.iter().zip(&sol.values) {
            assert!(
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
            assert!(ok, "constraint {i} violated: lhs {lhs} vs rhs {}", c.rhs);
        }
        let stated: f64 = self
            .vars
            .iter()
            .zip(&sol.values)
            .map(|(v, x)| v.obj * x)
            .sum();
        let scale = 1.0 + stated.abs().max(sol.objective.abs());
        assert!(
            (stated - sol.objective).abs() <= 1e-6 * scale,
            "reported objective {} vs stated Σ c·x {stated}",
            sol.objective,
        );
    }

    fn validate(&self) -> Result<(), SolverError> {
        for v in &self.vars {
            if !valid_bounds(v.lower, v.upper) {
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

    /// Standard-form cost of variable `i`: its objective coefficient,
    /// sign-adjusted for maximization.
    pub(crate) fn std_cost(&self, i: usize) -> f64 {
        0.0 + self.cost_sign() * self.vars[i].obj
    }

    /// Right-hand side of constraint `i` in standard columns: the user's
    /// value minus what the variable shifts already contribute, subtracted
    /// in term order.
    pub(crate) fn lowered_rhs(&self, i: usize) -> f64 {
        let c = &self.cons[i];
        let mut rhs = c.rhs;
        for &(v, coeff) in &c.terms {
            rhs -= coeff * self.vars[v].lower;
        }
        rhs
    }

    /// Validates the problem and lowers it to standard form: column `i` is
    /// variable `i` shifted by its lower bound, row `i` constraint `i`'s
    /// stored terms, and after them one row `x' <= upper - lower` per
    /// variable with a finite upper bound, in variable order.
    pub(crate) fn lower(&self) -> Result<StandardForm, SolverError> {
        self.validate()?;
        let user = (self.cons.iter().enumerate())
            .map(|(i, c)| (c.terms.clone(), c.cmp, self.lowered_rhs(i)));
        let bounds = (self.vars.iter().enumerate())
            .filter(|(_, v)| v.upper.is_finite())
            .map(|(i, v)| (vec![(i, 1.0)], Cmp::Le, v.upper - v.lower));
        Ok(StandardForm {
            ncols: self.vars.len(),
            costs: (0..self.vars.len()).map(|i| self.std_cost(i)).collect(),
            rows: user.chain(bounds).collect(),
        })
    }
}

/// Brings a row's terms to standard form: sorted by variable, a repeated
/// variable's coefficients summed, exact zeros dropped.
fn normalize(terms: &mut Vec<(usize, f64)>) {
    terms.sort_unstable_by_key(|&(v, _)| v);
    terms.dedup_by(|next, kept| {
        let repeated = next.0 == kept.0;
        if repeated {
            kept.1 += next.1;
        }
        repeated
    });
    terms.retain(|&(_, coeff)| coeff != 0.0);
}

/// Whether `[lower, upper]` is a range a variable may have: a finite lower
/// bound at most the upper bound, which may be `+inf`.
pub(crate) fn valid_bounds(lower: f64, upper: f64) -> bool {
    lower.is_finite() && lower <= upper
}

impl std::ops::Index<VarId> for LpSolution {
    type Output = f64;

    fn index(&self, var: VarId) -> &f64 {
        &self.values[var.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn infinite_lower_bounds_are_invalid() {
        // Every variable is one shifted column, so a lower bound at either
        // infinity is refused by every entry point, never solved as a free
        // or mirrored variable. `+inf` once fell through to a free column:
        // `x = 3` in release builds, a failed stated-problem check in debug.
        for lower in [f64::INFINITY, f64::NEG_INFINITY] {
            let invalid = SolverError::InvalidBounds { var: "x".into() };
            let mut lp = LpProblem::new(Sense::Maximize);
            let x = lp.add_var("x", lower, f64::INFINITY, 1.0);
            lp.add_constraint(&[(x, 1.0)], Cmp::Le, 3.0);
            assert_eq!(lp.solve().unwrap_err(), invalid);
            assert_eq!(lp.solve_dense().unwrap_err(), invalid);
            assert_eq!(crate::PreparedLp::new(lp.clone()).unwrap_err(), invalid);

            lp.set_bounds(x, 0.0, 7.0);
            let mut prep = crate::PreparedLp::new(lp).unwrap();
            assert_eq!(prep.solve(None).unwrap()[x], 3.0);
            prep.set_bounds(x, lower, 7.0);
            assert_eq!(prep.solve(None).unwrap_err(), invalid);
        }
    }

    #[test]
    fn free_variable() {
        // min |x| style: min y subject to y >= x, y >= -x, x = -3 forced.
        // A free `x` is refused; a finite negative lower bound solves it.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 0.0);
        let y = lp.add_var("y", 0.0, f64::INFINITY, 1.0);
        lp.add_constraint(&[(y, 1.0), (x, -1.0)], Cmp::Ge, 0.0);
        lp.add_constraint(&[(y, 1.0), (x, 1.0)], Cmp::Ge, 0.0);
        lp.add_constraint(&[(x, 1.0)], Cmp::Eq, -3.0);
        let invalid = SolverError::InvalidBounds { var: "x".into() };
        assert_eq!(lp.solve().unwrap_err(), invalid);

        lp.set_bounds(x, -10.0, f64::INFINITY);
        let sol = lp.solve().unwrap();
        assert!((sol[x] + 3.0).abs() < 1e-7);
        assert!((sol.objective - 3.0).abs() < 1e-7);
    }

    #[test]
    fn negative_lower_bound_mirrored_upper() {
        // Variable with only an upper bound: max x subject to x <= 7. It is
        // refused rather than mirrored; a finite lower bound solves it.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", f64::NEG_INFINITY, 7.0, 1.0);
        let invalid = SolverError::InvalidBounds { var: "x".into() };
        assert_eq!(lp.solve().unwrap_err(), invalid);

        lp.set_bounds(x, -100.0, 7.0);
        let sol = lp.solve().unwrap();
        assert!((sol[x] - 7.0).abs() < 1e-7);
    }

    #[test]
    fn rows_are_stored_sorted_merged_and_zero_free() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = lp.add_var("y", 0.0, 1.0, 1.0);
        let z = lp.add_var("z", 0.0, 1.0, 1.0);
        let c = lp.add_constraint(
            &[(z, 2.0), (x, 0.5), (y, 0.0), (z, -2.0), (x, 0.5)],
            Cmp::Le,
            3.0,
        );
        assert_eq!(lp.cons[c.index()].terms, [(x.index(), 1.0)]);
        let std = lp.lower().unwrap();
        assert_eq!(std.rows[c.index()].0, lp.cons[c.index()].terms);
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
        let err = crate::PreparedLp::new(lp).unwrap().solve(None).unwrap_err();
        assert!(numerical(&err), "{err:?}");
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
    fn bounded_vars_lower_to_one_row_each() {
        // A finite upper bound is one standard-form row after the user's
        // constraints, and the solve honors every bound.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 0.0, 1.0, 3.0);
        let y = lp.add_var("y", 0.5, 2.5, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Le, 3.0);
        assert_eq!(lp.lower().unwrap().rows.len(), lp.num_constraints() + 2);
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
