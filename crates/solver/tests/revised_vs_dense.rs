//! Differential property tests: the sparse revised simplex (the default
//! engine behind [`LpProblem::solve`]) against the dense two-phase tableau
//! ([`LpProblem::solve_dense`]) on randomized problems covering every
//! lowering path — `<=` / `>=` / `=` rows, negative right-hand sides,
//! free, bounded, and fixed variables, and deliberately duplicated rows
//! for degenerate optima — plus warm-start-equals-cold-start equivalence
//! over water-filling-style round sequences and over partial or singular
//! hints the solver completes.

use gavel_solver::{
    BasisEntry, Cmp, ConstraintId, LpProblem, PreparedLp, Sense, SolverError, VarId, WarmStart,
};
use proptest::prelude::*;

/// Variable shapes exercised by the generator.
#[derive(Debug, Clone, Copy)]
enum VarKind {
    NonNeg,
    Bounded,
    Fixed,
    Free,
}

fn var_kind() -> impl Strategy<Value = VarKind> {
    // Weighted toward the common shapes (policy LPs are mostly
    // nonnegative or boxed variables) by repetition — the vendored
    // proptest's `prop_oneof!` is unweighted.
    prop_oneof![
        Just(VarKind::NonNeg),
        Just(VarKind::NonNeg),
        Just(VarKind::NonNeg),
        Just(VarKind::Bounded),
        Just(VarKind::Bounded),
        Just(VarKind::Fixed),
        Just(VarKind::Free),
    ]
}

fn coeff() -> impl Strategy<Value = f64> {
    (-4.0f64..4.0).prop_map(|v| (v * 4.0).round() / 4.0)
}

/// A constraint as `(terms over dense var indices, cmp, rhs)`, kept for
/// independent feasibility checking of returned solutions.
type CheckRow = (Vec<(usize, f64)>, Cmp, f64);

#[derive(Debug, Clone)]
struct RandomLp {
    lp: LpProblem,
    cons: Vec<CheckRow>,
    /// Every variable and every constraint, in the order added.
    vars: Vec<VarId>,
    rows: Vec<ConstraintId>,
}

/// Builds a random bounded LP. A box row `sum x_i <= B` over the
/// nonnegative-directions keeps maximization bounded; free variables are
/// boxed individually.
#[allow(clippy::too_many_arguments)]
fn build_lp(
    kinds: &[VarKind],
    costs: &[f64],
    coeffs: &[f64],
    rhs: &[f64],
    cmps: &[u8],
    dup_row: bool,
    maximize: bool,
) -> RandomLp {
    let n = kinds.len();
    let sense = if maximize {
        Sense::Maximize
    } else {
        Sense::Minimize
    };
    let mut lp = LpProblem::new(sense);
    let mut cons: Vec<CheckRow> = Vec::new();
    let mut rows: Vec<ConstraintId> = Vec::new();
    let mut vars: Vec<VarId> = Vec::with_capacity(n);
    for (i, kind) in kinds.iter().enumerate() {
        let c = costs[i];
        let v = match kind {
            VarKind::NonNeg => lp.add_var(&format!("x{i}"), 0.0, f64::INFINITY, c),
            VarKind::Bounded => lp.add_var(&format!("x{i}"), -1.0, 3.0, c),
            VarKind::Fixed => lp.add_var(&format!("x{i}"), 1.5, 1.5, c),
            VarKind::Free => lp.add_var(&format!("x{i}"), f64::NEG_INFINITY, f64::INFINITY, c),
        };
        vars.push(v);
    }
    // Box every variable from above and below so no direction is
    // unbounded regardless of the random rows.
    for (i, &v) in vars.iter().enumerate() {
        if matches!(kinds[i], VarKind::NonNeg | VarKind::Free) {
            rows.push(lp.add_constraint(&[(v, 1.0)], Cmp::Le, 8.0));
            cons.push((vec![(i, 1.0)], Cmp::Le, 8.0));
            if matches!(kinds[i], VarKind::Free) {
                rows.push(lp.add_constraint(&[(v, 1.0)], Cmp::Ge, -8.0));
                cons.push((vec![(i, 1.0)], Cmp::Ge, -8.0));
            }
        }
    }
    let m = cmps.len();
    for r in 0..m {
        let terms: Vec<(VarId, f64)> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, coeffs[r * kinds.len() + i]))
            .collect();
        let cmp = match cmps[r] % 3 {
            0 => Cmp::Le,
            1 => Cmp::Ge,
            _ => Cmp::Eq,
        };
        // `rhs` spans negatives to exercise row normalization. Keep
        // equality/>= rows satisfiable at moderate magnitudes; the
        // brute-force comparison tolerates (and checks) infeasibility
        // symmetrically anyway.
        rows.push(lp.add_constraint(&terms, cmp, rhs[r]));
        let dense_terms: Vec<(usize, f64)> = terms.iter().map(|&(v, c)| (v.index(), c)).collect();
        cons.push((dense_terms.clone(), cmp, rhs[r]));
        if dup_row && r == 0 {
            // Duplicated row: forces degenerate bases in both engines.
            rows.push(lp.add_constraint(&terms, cmp, rhs[r]));
            cons.push((dense_terms, cmp, rhs[r]));
        }
    }
    RandomLp {
        lp,
        cons,
        vars,
        rows,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The two engines agree on feasibility, boundedness, and (to 1e-6)
    /// the optimal objective; the revised solution also satisfies every
    /// constraint it was given.
    #[test]
    fn revised_matches_dense(
        kinds in proptest::collection::vec(var_kind(), 2..5),
        costs in proptest::collection::vec(coeff(), 5),
        coeffs in proptest::collection::vec(coeff(), 20),
        rhs in proptest::collection::vec(-5.0f64..6.0, 4),
        cmps in proptest::collection::vec(0u8..3, 1..4),
        dup_row in any::<bool>(),
        maximize in any::<bool>(),
    ) {
        let built = build_lp(&kinds, &costs[..kinds.len()], &coeffs, &rhs, &cmps, dup_row, maximize);
        let revised = built.lp.solve();
        let dense = built.lp.solve_dense();
        match (revised, dense) {
            (Ok(r), Ok(d)) => {
                let scale = 1.0 + r.objective.abs().max(d.objective.abs());
                prop_assert!(
                    (r.objective - d.objective).abs() < 1e-6 * scale,
                    "objectives diverge: revised {} vs dense {}",
                    r.objective,
                    d.objective
                );
                // The revised point satisfies the original constraints.
                for (idx, (terms, cmp, b)) in built.cons.iter().enumerate() {
                    let (cmp, b) = (*cmp, *b);
                    let lhs: f64 = terms.iter().map(|&(v, c)| r.values[v] * c).sum();
                    let ok = match cmp {
                        Cmp::Le => lhs <= b + 1e-6,
                        Cmp::Ge => lhs >= b - 1e-6,
                        Cmp::Eq => (lhs - b).abs() <= 1e-6,
                    };
                    prop_assert!(ok, "constraint {idx} violated: {lhs} vs {b}");
                }
            }
            (Err(SolverError::Infeasible), Err(SolverError::Infeasible)) => {}
            (Err(SolverError::Unbounded), Err(SolverError::Unbounded)) => {}
            (r, d) => prop_assert!(false, "engines disagree: revised {r:?} vs dense {d:?}"),
        }
    }

    /// A hint naming too few columns, or dependent ones, is completed
    /// rather than dropped, and the completed solve reaches the cold
    /// solve's verdict and, to 1e-9 relative, its objective. Half the hints
    /// are random picks of variables and slacks, often dependent; half are
    /// the cold optimum's basis with random entries taken out.
    #[test]
    fn completed_hints_match_cold(
        kinds in proptest::collection::vec(var_kind(), 2..5),
        costs in proptest::collection::vec(coeff(), 5),
        coeffs in proptest::collection::vec(coeff(), 20),
        rhs in proptest::collection::vec(-5.0f64..6.0, 4),
        cmps in proptest::collection::vec(0u8..3, 1..4),
        dup_row in any::<bool>(),
        maximize in any::<bool>(),
        from_optimum in any::<bool>(),
        picks in proptest::collection::vec(0usize..64, 0..8),
    ) {
        let built = build_lp(&kinds, &costs[..kinds.len()], &coeffs, &rhs, &cmps, dup_row, maximize);
        let mut prep = PreparedLp::new(built.lp.clone()).unwrap();
        let cold = prep.solve(None);
        let drawn: Vec<BasisEntry> = match (&cold, from_optimum) {
            (Ok((_, optimal)), true) => {
                let mut entries = prep.basis_entries(optimal);
                for &p in &picks {
                    if !entries.is_empty() {
                        entries.remove(p % entries.len());
                    }
                }
                entries
            }
            _ => {
                let named = (built.vars.iter().map(|&v| BasisEntry::Var(v)))
                    .chain(built.rows.iter().map(|&c| BasisEntry::Slack(c)));
                let named: Vec<BasisEntry> =
                    named.filter(|e| prep.basis_hint(&[*e]).is_some()).collect();
                picks.iter().map(|&p| named[p % named.len()]).collect()
            }
        };
        // At most one entry per row, none twice: a hint that does not fit
        // is dropped, which is not what this test is about.
        let mut entries = Vec::new();
        for e in drawn {
            if !entries.contains(&e) && entries.len() < built.rows.len() {
                entries.push(e);
            }
        }
        let hint = prep.basis_hint(&entries);
        prop_assert!(hint.is_some(), "{:?}", entries);
        let warm = prep.solve(hint.as_ref());
        match (cold, warm) {
            (Ok((c, _)), Ok((w, _))) => {
                let tol = 1e-9 * c.objective.abs().max(1.0);
                prop_assert!(
                    (w.objective - c.objective).abs() <= tol,
                    "completed {} vs cold {} from {:?}: {:?}",
                    w.objective,
                    c.objective,
                    entries,
                    w.stats
                );
                prop_assert_eq!(w.stats.warm_hits + w.stats.warm_falls_back, 1);
            }
            (Err((c, _)), Err((w, _))) => prop_assert_eq!(c, w),
            (c, w) => prop_assert!(false, "cold {c:?} vs completed {w:?}"),
        }
    }

    /// Chained warm starts over a water-filling-style sequence (one shared
    /// constraint structure, floors rising round over round) match cold
    /// solves of the same rounds to tight tolerance.
    #[test]
    fn warm_start_matches_cold_over_round_sequences(
        n in 3usize..8,
        tputs in proptest::collection::vec(0.5f64..4.0, 24),
        rises in proptest::collection::vec(0.05f64..0.3, 6),
    ) {
        let rounds = rises.len();
        let build_round = |floors: &[f64]| {
            let mut lp = LpProblem::new(Sense::Maximize);
            let xs: Vec<Vec<VarId>> = (0..n)
                .map(|m| {
                    (0..3)
                        .map(|j| lp.add_var(&format!("x{m}_{j}"), 0.0, f64::INFINITY, 0.0))
                        .collect()
                })
                .collect();
            let t = lp.add_var("t", 0.0, f64::INFINITY, 1.0);
            for (m, row) in xs.iter().enumerate() {
                let budget: Vec<(VarId, f64)> = row.iter().map(|&v| (v, 1.0)).collect();
                lp.add_constraint(&budget, Cmp::Le, 1.0);
                let mut tput: Vec<(VarId, f64)> = row
                    .iter()
                    .enumerate()
                    .map(|(j, &v)| (v, tputs[(m * 3 + j) % tputs.len()]))
                    .collect();
                tput.push((t, -1.0));
                lp.add_constraint(&tput, Cmp::Ge, floors[m]);
            }
            for j in 0..3 {
                let cap: Vec<(VarId, f64)> = xs.iter().map(|row| (row[j], 1.0)).collect();
                lp.add_constraint(&cap, Cmp::Le, (n as f64 / 3.0).max(1.0));
            }
            lp
        };

        let mut floors = vec![0.0f64; n];
        let mut cache: Option<WarmStart> = None;
        for r in 0..rounds {
            let lp = build_round(&floors);
            let cold = lp.solve().unwrap();
            let (warm, basis) = lp.solve_warm(cache.as_ref()).unwrap();
            cache = Some(basis);
            let scale = 1.0 + cold.objective.abs();
            prop_assert!(
                (warm.objective - cold.objective).abs() < 1e-7 * scale,
                "round {r}: warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
            // Raise every floor by a fraction of the achieved level, like a
            // water-filling iteration, and go around again.
            for f in floors.iter_mut() {
                *f += rises[r] * warm.objective.max(0.1);
            }
        }
    }
}
