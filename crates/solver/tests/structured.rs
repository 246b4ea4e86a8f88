//! Structured tests on the exact LP shapes Gavel generates, with
//! analytically known optima.

use gavel_solver::{bisect_min, Cmp, LpProblem, Sense, SolverError, VarId};

/// Builds the heterogeneity-aware max-min LP for `n` identical jobs with
/// per-type throughputs `tputs` on a cluster with `workers` per type.
fn max_min_lp(n: usize, tputs: &[f64], workers: &[usize]) -> (LpProblem, Vec<Vec<VarId>>, VarId) {
    let mut lp = LpProblem::new(Sense::Maximize);
    let x: Vec<Vec<VarId>> = (0..n)
        .map(|m| {
            (0..tputs.len())
                .map(|j| lp.add_var(&format!("x{m}_{j}"), 0.0, f64::INFINITY, 0.0))
                .collect()
        })
        .collect();
    let t = lp.add_var("t", 0.0, f64::INFINITY, 1.0);
    for row in &x {
        let budget: Vec<(VarId, f64)> = row.iter().map(|&v| (v, 1.0)).collect();
        lp.add_constraint(&budget, Cmp::Le, 1.0);
        let mut tput: Vec<(VarId, f64)> = row.iter().zip(tputs).map(|(&v, &c)| (v, c)).collect();
        tput.push((t, -1.0));
        lp.add_constraint(&tput, Cmp::Ge, 0.0);
    }
    for (j, &w) in workers.iter().enumerate() {
        let cap: Vec<(VarId, f64)> = x.iter().map(|row| (row[j], 1.0)).collect();
        lp.add_constraint(&cap, Cmp::Le, w as f64);
    }
    (lp, x, t)
}

#[test]
fn identical_jobs_split_capacity_evenly() {
    // n identical jobs, throughputs (4, 2, 1), one worker per type. By
    // symmetry the max-min value is (4 + 2 + 1) / n when n >= 3 (no job
    // budget binds) — each job's throughput equals an equal slice of the
    // cluster's aggregate.
    for n in [3usize, 5, 9, 17] {
        let (lp, _, t) = max_min_lp(n, &[4.0, 2.0, 1.0], &[1, 1, 1]);
        let sol = lp.solve().unwrap();
        let expected = 7.0 / n as f64;
        assert!(
            (sol.value(t) - expected).abs() < 1e-6,
            "n={n}: t={} expected {expected}",
            sol.value(t)
        );
    }
}

#[test]
fn single_job_takes_the_fastest_type() {
    let (lp, x, t) = max_min_lp(1, &[4.0, 2.0, 1.0], &[1, 1, 1]);
    let sol = lp.solve().unwrap();
    assert!((sol.value(t) - 4.0).abs() < 1e-7);
    assert!((sol.value(x[0][0]) - 1.0).abs() < 1e-7);
}

#[test]
fn job_budget_binds_before_capacity() {
    // 2 jobs, 3 workers of one type at rate 1: each job can use at most
    // one worker at a time, so t* = 1 (not 1.5).
    let (lp, _, t) = max_min_lp(2, &[1.0], &[3]);
    let sol = lp.solve().unwrap();
    assert!((sol.value(t) - 1.0).abs() < 1e-7);
}

#[test]
fn moderate_scale_solution_is_feasible_and_symmetric() {
    let n = 120;
    let (lp, x, t) = max_min_lp(n, &[4.0, 2.0, 1.0], &[10, 10, 10]);
    let sol = lp.solve().unwrap();
    // t* = aggregate capacity / n = (10*4 + 10*2 + 10*1) / 120.
    let expected = 70.0 / 120.0;
    assert!(
        (sol.value(t) - expected).abs() < 1e-5,
        "t={} expected {expected}",
        sol.value(t)
    );
    // Explicit feasibility re-check of the returned point.
    for j in 0..3 {
        let used: f64 = x.iter().map(|row| sol.value(row[j])).sum();
        assert!(used <= 10.0 + 1e-6, "type {j} used {used}");
    }
    for row in &x {
        let budget: f64 = row.iter().map(|&v| sol.value(v)).sum();
        assert!(budget <= 1.0 + 1e-6);
    }
}

#[test]
fn makespan_bisection_on_lp_feasibility() {
    // Two job classes on one worker type: steps (100, 300), rate 1.
    // Optimal makespan = total work = 400 (shares 0.25 / 0.75).
    let probe = |m: f64| {
        let mut lp = LpProblem::new(Sense::Maximize);
        let a = lp.add_var("a", 0.0, 1.0, 0.0);
        let b = lp.add_var("b", 0.0, 1.0, 0.0);
        lp.add_constraint(&[(a, 1.0), (b, 1.0)], Cmp::Le, 1.0);
        lp.add_constraint(&[(a, 1.0)], Cmp::Ge, 100.0 / m);
        lp.add_constraint(&[(b, 1.0)], Cmp::Ge, 300.0 / m);
        match lp.solve() {
            Ok(sol) => Ok(Some([sol.value(a), sol.value(b)])),
            Err(SolverError::Infeasible) => Ok(None),
            Err(e) => Err(e),
        }
    };
    let (best, shares) = bisect_min(1.0, 10_000.0, 1e-3, 100, probe)
        .unwrap()
        .unwrap();
    assert!((best - 400.0).abs() < 1.0, "makespan {best}");
    // The witness is the feasible point at `best`: it meets both floors.
    assert!(shares[0] >= 100.0 / best - 1e-9 && shares[1] >= 300.0 / best - 1e-9);
    assert!(shares[0] + shares[1] <= 1.0 + 1e-9, "{shares:?}");
}

#[test]
fn degenerate_equal_throughputs_terminate() {
    // Heavy degeneracy: many identical rows; exercises Bland fallback.
    let n = 60;
    let (lp, _, t) = max_min_lp(n, &[1.0, 1.0, 1.0], &[5, 5, 5]);
    let sol = lp.solve().unwrap();
    assert!((sol.value(t) - 15.0 / 60.0).abs() < 1e-6);
}

#[test]
fn zero_throughput_columns_are_ignored() {
    // A job that cannot run on type 1 (rate 0) still achieves t from the
    // other types; the solver must not divide by or pivot into nonsense.
    let mut lp = LpProblem::new(Sense::Maximize);
    let x0 = lp.add_var("x0", 0.0, f64::INFINITY, 0.0);
    let x1 = lp.add_var("x1", 0.0, f64::INFINITY, 0.0);
    let t = lp.add_var("t", 0.0, f64::INFINITY, 1.0);
    lp.add_constraint(&[(x0, 1.0), (x1, 1.0)], Cmp::Le, 1.0);
    lp.add_constraint(&[(x0, 3.0), (x1, 0.0), (t, -1.0)], Cmp::Ge, 0.0);
    lp.add_constraint(&[(x0, 1.0)], Cmp::Le, 1.0);
    lp.add_constraint(&[(x1, 1.0)], Cmp::Le, 1.0);
    let sol = lp.solve().unwrap();
    assert!((sol.value(t) - 3.0).abs() < 1e-7);
}

#[test]
fn pivot_counts_stay_reasonable_at_scale() {
    let (lp, _, _) = max_min_lp(200, &[4.0, 2.0, 1.0], &[20, 20, 20]);
    let sol = lp.solve().unwrap();
    // Simplex theory: expect O(rows) pivots in practice, not thousands.
    assert!(
        sol.stats.total_pivots() < 5_000,
        "pivots {}",
        sol.stats.total_pivots()
    );
}
