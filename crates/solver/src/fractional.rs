//! Linear-fractional programming via the Charnes–Cooper transform.
//!
//! Gavel's cost policies maximize throughput-per-dollar, i.e. a ratio of two
//! affine functions of the allocation. With `x >= 0`, `Ax {<=,>=,=} b`, and a
//! denominator that is strictly positive over the feasible region, the
//! substitution `y = t x`, `t = 1 / (d'x + d0)` turns
//!
//! ```text
//! max (c'x + c0) / (d'x + d0)
//! ```
//!
//! into the linear program
//!
//! ```text
//! max  c'y + c0 t
//! s.t. A y - b t {<=,>=,=} 0
//!      d'y + d0 t = 1
//!      y >= 0, t >= 0
//! ```
//!
//! and `x = y / t` recovers the original variables.

use crate::error::SolverError;
use crate::problem::{Cmp, LpProblem, Sense, VarId};
use crate::simplex::LpSolution;

/// Ratio objective `(num . x + num_const) / (den . x + den_const)`.
#[derive(Debug, Clone)]
pub struct FractionalObjective {
    /// Numerator linear terms.
    pub num: Vec<(VarId, f64)>,
    /// Numerator constant.
    pub num_const: f64,
    /// Denominator linear terms.
    pub den: Vec<(VarId, f64)>,
    /// Denominator constant.
    pub den_const: f64,
}

/// Solves `optimize (num'x + c0) / (den'x + d0)` over the constraint set of
/// `lp` (the objective stored in `lp` is ignored).
///
/// All variables of `lp` must have lower bound `0.0`; finite upper bounds are
/// homogenized into rows. Returns the recovered `x` and the achieved ratio as
/// the solution objective.
///
/// # Errors
///
/// [`SolverError::NonPositiveDenominator`] when the optimal `t` is (near)
/// zero, meaning the denominator is unbounded or not strictly positive;
/// bound/feasibility errors propagate from the inner LP solve.
pub fn solve_fractional(
    lp: &LpProblem,
    obj: &FractionalObjective,
    sense: Sense,
) -> Result<LpSolution, SolverError> {
    // Validate lower bounds: Charnes–Cooper as implemented needs x >= 0.
    for (i, v) in lp.vars.iter().enumerate() {
        if v.lower != 0.0 {
            return Err(SolverError::InvalidBounds {
                var: format!(
                    "{} (fractional solve requires lower bound 0, got {})",
                    lp.vars[i].name, v.lower
                ),
            });
        }
    }

    let n = lp.num_vars();
    let mut t_lp = LpProblem::new(sense);
    // y variables mirror the originals (upper bounds homogenized below).
    let mut y_ids = Vec::with_capacity(n);
    for i in 0..n {
        y_ids.push(t_lp.add_var_indexed("y", i, 0.0, f64::INFINITY, 0.0));
    }
    let t_id = t_lp.add_var("t", 0.0, f64::INFINITY, obj.num_const);
    for &(v, c) in &obj.num {
        let cur = t_lp.vars[y_ids[v.index()].index()].obj;
        t_lp.set_objective_coeff(y_ids[v.index()], cur + c);
    }

    // Homogenized constraints: A y - b t cmp 0.
    for c in &lp.cons {
        let mut terms: Vec<(VarId, f64)> = c
            .terms
            .iter()
            .map(|&(v, coeff)| (y_ids[v], coeff))
            .collect();
        terms.push((t_id, -c.rhs));
        t_lp.add_constraint(&terms, c.cmp, 0.0);
    }
    // Homogenized upper bounds: y - u t <= 0.
    for (i, v) in lp.vars.iter().enumerate() {
        if v.upper.is_finite() {
            t_lp.add_constraint(&[(y_ids[i], 1.0), (t_id, -v.upper)], Cmp::Le, 0.0);
        }
    }
    // Normalization: d'y + d0 t = 1.
    let mut den_terms: Vec<(VarId, f64)> = obj
        .den
        .iter()
        .map(|&(v, c)| (y_ids[v.index()], c))
        .collect();
    den_terms.push((t_id, obj.den_const));
    t_lp.add_constraint(&den_terms, Cmp::Eq, 1.0);

    let sol = t_lp.solve()?;
    let t = sol.value(t_id);
    if t <= 1e-12 {
        return Err(SolverError::NonPositiveDenominator);
    }
    let values: Vec<f64> = y_ids.iter().map(|&y| sol.value(y) / t).collect();
    Ok(LpSolution {
        values,
        objective: sol.objective,
        stats: sol.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_ratio() {
        // max (2x + y) / (x + y + 1) s.t. x + y <= 3, x <= 2.
        // Candidates: vertices (0,0): 0; (2,0): 4/3; (2,1): 5/4; (0,3): 3/4.
        // Optimum is x=2, y=0 with ratio 4/3.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 0.0, 2.0, 0.0);
        let y = lp.add_var("y", 0.0, f64::INFINITY, 0.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Le, 3.0);
        let obj = FractionalObjective {
            num: vec![(x, 2.0), (y, 1.0)],
            num_const: 0.0,
            den: vec![(x, 1.0), (y, 1.0)],
            den_const: 1.0,
        };
        let sol = solve_fractional(&lp, &obj, Sense::Maximize).unwrap();
        assert!(
            (sol.objective - 4.0 / 3.0).abs() < 1e-7,
            "obj={}",
            sol.objective
        );
        assert!((sol.values[0] - 2.0).abs() < 1e-6);
        assert!(sol.values[1].abs() < 1e-6);
    }

    #[test]
    fn minimize_ratio() {
        // min (x + 4) / (x + 1) for 0 <= x <= 3 decreases in x: optimum x=3,
        // ratio 7/4.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", 0.0, 3.0, 0.0);
        let obj = FractionalObjective {
            num: vec![(x, 1.0)],
            num_const: 4.0,
            den: vec![(x, 1.0)],
            den_const: 1.0,
        };
        let sol = solve_fractional(&lp, &obj, Sense::Minimize).unwrap();
        assert!((sol.objective - 1.75).abs() < 1e-7);
        assert!((sol.values[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn rejects_nonzero_lower_bound() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 1.0, 2.0, 0.0);
        let obj = FractionalObjective {
            num: vec![(x, 1.0)],
            num_const: 0.0,
            den: vec![],
            den_const: 1.0,
        };
        assert!(matches!(
            solve_fractional(&lp, &obj, Sense::Maximize),
            Err(SolverError::InvalidBounds { .. })
        ));
    }

    #[test]
    fn equality_constraints_homogenize() {
        // max x / (y + 1) s.t. x + y = 2, x <= 1.5 -> x = 1.5, y = 0.5,
        // ratio 1.0.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 0.0, 1.5, 0.0);
        let y = lp.add_var("y", 0.0, f64::INFINITY, 0.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Eq, 2.0);
        let obj = FractionalObjective {
            num: vec![(x, 1.0)],
            num_const: 0.0,
            den: vec![(y, 1.0)],
            den_const: 1.0,
        };
        let sol = solve_fractional(&lp, &obj, Sense::Maximize).unwrap();
        assert!((sol.objective - 1.0).abs() < 1e-6);
        assert!((sol.values[0] - 1.5).abs() < 1e-6);
        assert!((sol.values[1] - 0.5).abs() < 1e-6);
    }
}
