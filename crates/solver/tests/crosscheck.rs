//! `GAVEL_LP_CROSSCHECK` coverage of the warm/dual solve paths.
//!
//! Lives in its own test binary: the flag is a process-global environment
//! variable, and flipping it while sibling tests solve LPs on parallel
//! threads would nondeterministically drag them through the dense-oracle
//! cross-check path.

use gavel_solver::{Cmp, LpProblem, PreparedLp, Sense, SolverError, VarId, WarmStart};

/// One water-filling round LP (see `bounded_dual.rs` for the full story):
/// `max t` with per-job budgets, tight per-type capacity, `floor + t`
/// rows for active jobs and plain floor rows for bottlenecked ones.
fn round_lp(n: usize, tputs: &[f64], floors: &[f64], active: &[bool]) -> LpProblem {
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
        if active[m] {
            tput.push((t, -1.0));
        }
        lp.add_constraint(&tput, Cmp::Ge, floors[m]);
    }
    for j in 0..3 {
        let cap: Vec<(VarId, f64)> = xs.iter().map(|row| (row[j], 1.0)).collect();
        lp.add_constraint(&cap, Cmp::Le, (n as f64 / 6.0).max(0.7));
    }
    lp
}

/// `GAVEL_LP_CROSSCHECK` runs the dense oracle against every revised
/// solve, including warm-started and dual-reoptimized ones (`LpProblem`
/// and `PreparedLp` share one solve body and its exit path). This exercises that hook over a rising
/// floor sequence so the dual path is differentially tested in debug runs.
#[test]
fn crosscheck_covers_warm_and_dual_solves() {
    std::env::set_var("GAVEL_LP_CROSSCHECK", "1");
    let tputs: Vec<f64> = (0..21).map(|i| 0.5 + 0.17 * i as f64).collect();
    // Job 4 is bottlenecked from the start; raising its frozen floor each
    // round is what pushes the warm basis across breakpoints into the
    // dual path while the oracle re-checks every solve.
    let mut active = vec![true; 5];
    active[4] = false;
    let mut floors = vec![0.0f64; 5];
    let mut cache: Option<WarmStart> = None;
    let mut dual_pivots = 0;
    for r in 0..6 {
        let lp = round_lp(5, &tputs, &floors, &active);
        // cross_check fires inside the solve (debug builds).
        let (sol, basis) = PreparedLp::new(lp).unwrap().solve(cache.as_ref()).unwrap();
        dual_pivots += sol.stats.dual_pivots;
        cache = Some(basis);
        let t_star = sol.objective.max(0.1);
        for (m, f) in floors.iter_mut().enumerate() {
            *f += if active[m] {
                0.1 * t_star
            } else {
                0.12 * r as f64
            };
        }
    }
    std::env::remove_var("GAVEL_LP_CROSSCHECK");
    // This fixed sequence crosses basis breakpoints, so the dual path must
    // actually have run under the oracle's eye.
    assert!(
        dual_pivots > 0,
        "dual path never exercised under crosscheck"
    );
    // And an infeasible round (floors beyond capacity) must verdict
    // identically warm and cold.
    floors.iter_mut().for_each(|f| *f += 1e6);
    let lp = round_lp(5, &tputs, &floors, &active);
    let mut warm = PreparedLp::new(lp.clone()).unwrap();
    assert_eq!(
        warm.solve(cache.as_ref()).unwrap_err().0,
        SolverError::Infeasible
    );
    assert_eq!(lp.solve().unwrap_err(), SolverError::Infeasible);
}
