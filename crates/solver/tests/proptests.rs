//! Property-based tests for the LP solver.
//!
//! Strategy: generate small random problems where an independent method can
//! certify the answer — brute-force vertex enumeration, and strong duality
//! between a random primal and its hand-built dual.

use gavel_solver::{Cmp, LpProblem, Sense, SolverError, VarId};
use proptest::prelude::*;

/// Solves the square system `ax = b` by Gaussian elimination with partial
/// pivoting. Returns `None` for (near-)singular systems.
fn solve_square(a: &[Vec<f64>], b: &[f64]) -> Option<Vec<f64>> {
    let n = b.len();
    let mut m: Vec<Vec<f64>> = a
        .iter()
        .zip(b)
        .map(|(row, &rhs)| {
            let mut r = row.clone();
            r.push(rhs);
            r
        })
        .collect();
    for col in 0..n {
        let (pivot_row, pivot_val) = (col..n)
            .map(|r| (r, m[r][col].abs()))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())?;
        if pivot_val < 1e-9 {
            return None;
        }
        m.swap(col, pivot_row);
        let inv = 1.0 / m[col][col];
        for j in col..=n {
            m[col][j] *= inv;
        }
        for r in 0..n {
            if r != col {
                let f = m[r][col];
                if f != 0.0 {
                    for j in col..=n {
                        m[r][j] -= f * m[col][j];
                    }
                }
            }
        }
    }
    Some(m.iter().map(|row| row[n]).collect())
}

/// Brute-force LP optimum by enumerating candidate vertices: every subset of
/// `n` constraints (from rows plus the nonnegativity facets), solved as an
/// equality system and filtered for feasibility.
fn brute_force_max(
    n: usize,
    costs: &[f64],
    rows: &[(Vec<f64>, f64)], // a . x <= b
) -> Option<(f64, Vec<f64>)> {
    // All facets: given constraints (a, b) plus x_i >= 0 as (-e_i, 0).
    let mut facets: Vec<(Vec<f64>, f64)> = rows.to_vec();
    for i in 0..n {
        let mut e = vec![0.0; n];
        e[i] = -1.0;
        facets.push((e, 0.0));
    }
    let nf = facets.len();
    let mut best: Option<(f64, Vec<f64>)> = None;
    let mut idx: Vec<usize> = (0..n).collect();
    // Iterate all n-subsets of facets via simple odometer.
    loop {
        let a: Vec<Vec<f64>> = idx.iter().map(|&i| facets[i].0.clone()).collect();
        let b: Vec<f64> = idx.iter().map(|&i| facets[i].1).collect();
        if let Some(x) = solve_square(&a, &b) {
            let feasible = x.iter().all(|&v| v >= -1e-7)
                && rows
                    .iter()
                    .all(|(a, b)| a.iter().zip(&x).map(|(c, v)| c * v).sum::<f64>() <= b + 1e-7);
            if feasible {
                let obj: f64 = costs.iter().zip(&x).map(|(c, v)| c * v).sum();
                if best.as_ref().is_none_or(|(bo, _)| obj > *bo) {
                    best = Some((obj, x));
                }
            }
        }
        // Advance the subset odometer.
        let mut i = n;
        loop {
            if i == 0 {
                return best;
            }
            i -= 1;
            if idx[i] < nf - (n - i) {
                idx[i] += 1;
                for j in i + 1..n {
                    idx[j] = idx[j - 1] + 1;
                }
                break;
            }
        }
    }
}

fn small_coeff() -> impl Strategy<Value = f64> {
    // Avoid values near zero to keep vertex systems well-conditioned.
    prop_oneof![(-5.0f64..5.0).prop_map(|v| (v * 4.0).round() / 4.0)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Simplex matches brute-force vertex enumeration on random bounded LPs.
    #[test]
    fn simplex_matches_vertex_enumeration(
        n in 2usize..4,
        m in 1usize..4,
        costs in proptest::collection::vec(small_coeff(), 4),
        coeffs in proptest::collection::vec(small_coeff(), 16),
        rhs in proptest::collection::vec(0.25f64..6.0, 4),
    ) {
        // Bound the region with a box row so the LP is never unbounded.
        let mut rows: Vec<(Vec<f64>, f64)> = Vec::new();
        for i in 0..m {
            let row: Vec<f64> = (0..n).map(|j| coeffs[i * 4 + j]).collect();
            rows.push((row, rhs[i]));
        }
        rows.push((vec![1.0; n], 10.0));

        let costs = &costs[..n];
        let expected = brute_force_max(n, costs, &rows);

        let mut lp = LpProblem::new(Sense::Maximize);
        let vars: Vec<VarId> = (0..n)
            .map(|i| lp.add_var(&format!("x{i}"), 0.0, f64::INFINITY, costs[i]))
            .collect();
        for (row, b) in &rows {
            let terms: Vec<(VarId, f64)> =
                vars.iter().zip(row).map(|(&v, &c)| (v, c)).collect();
            lp.add_constraint(&terms, Cmp::Le, *b);
        }
        let got = lp.solve();

        match (expected, got) {
            (Some((exp_obj, _)), Ok(sol)) => {
                prop_assert!((sol.objective - exp_obj).abs() < 1e-5,
                    "simplex {} vs brute force {}", sol.objective, exp_obj);
                // The returned point must satisfy every constraint.
                for (row, b) in &rows {
                    let lhs: f64 = row.iter().zip(&sol.values).map(|(c, v)| c * v).sum();
                    prop_assert!(lhs <= b + 1e-6);
                }
                for &v in &sol.values {
                    prop_assert!(v >= -1e-9);
                }
            }
            // x = 0 is always feasible here (rhs > 0), so both must succeed.
            (exp, got) => prop_assert!(false, "disagreement: exp={exp:?} got={got:?}"),
        }
    }

    /// Strong duality: primal `max c'x, Ax <= b, x >= 0` and dual
    /// `min b'y, A'y >= c, y >= 0` meet at the same objective.
    #[test]
    fn strong_duality(
        n in 1usize..4,
        m in 1usize..4,
        costs in proptest::collection::vec(0.25f64..4.0, 4),
        coeffs in proptest::collection::vec(0.0f64..3.0, 16),
        rhs in proptest::collection::vec(0.5f64..6.0, 4),
    ) {
        // Positive data keeps both primal and dual feasible and bounded
        // once we add a box row to the primal.
        let mut a: Vec<Vec<f64>> = Vec::new();
        for i in 0..m {
            a.push((0..n).map(|j| coeffs[i * 4 + j]).collect());
        }
        a.push(vec![1.0; n]); // box row
        let mut b: Vec<f64> = rhs[..m].to_vec();
        b.push(20.0);
        let mrows = m + 1;

        let mut primal = LpProblem::new(Sense::Maximize);
        let xs: Vec<VarId> = (0..n)
            .map(|i| primal.add_var(&format!("x{i}"), 0.0, f64::INFINITY, costs[i]))
            .collect();
        for i in 0..mrows {
            let terms: Vec<(VarId, f64)> =
                xs.iter().enumerate().map(|(j, &v)| (v, a[i][j])).collect();
            primal.add_constraint(&terms, Cmp::Le, b[i]);
        }
        let psol = primal.solve().unwrap();

        let mut dual = LpProblem::new(Sense::Minimize);
        let ys: Vec<VarId> = (0..mrows)
            .map(|i| dual.add_var(&format!("y{i}"), 0.0, f64::INFINITY, b[i]))
            .collect();
        for j in 0..n {
            let terms: Vec<(VarId, f64)> =
                ys.iter().enumerate().map(|(i, &v)| (v, a[i][j])).collect();
            dual.add_constraint(&terms, Cmp::Ge, costs[j]);
        }
        let dsol = dual.solve().unwrap();

        prop_assert!((psol.objective - dsol.objective).abs() < 1e-5,
            "primal {} vs dual {}", psol.objective, dsol.objective);
    }

    /// Feasibility invariant: any optimal solution satisfies all constraints
    /// and bounds even with equality rows and shifted bounds present.
    #[test]
    fn solutions_respect_constraints(
        lo in 0.0f64..2.0,
        width in 0.5f64..3.0,
        target in 2.0f64..8.0,
        c1 in 0.5f64..2.0,
        c2 in 0.5f64..2.0,
    ) {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", lo, lo + width, c1);
        let y = lp.add_var("y", 0.0, f64::INFINITY, c2);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Eq, target + lo);
        match lp.solve() {
            Ok(sol) => {
                prop_assert!(sol[x] >= lo - 1e-7);
                prop_assert!(sol[x] <= lo + width + 1e-7);
                prop_assert!(sol[y] >= -1e-9);
                prop_assert!(((sol[x] + sol[y]) - (target + lo)).abs() < 1e-6);
            }
            Err(SolverError::Infeasible) => {
                // Only possible if even x at its max plus unbounded y cannot
                // reach the target, which cannot happen since y is unbounded.
                prop_assert!(false, "unexpected infeasibility");
            }
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }
}
