//! The allocation count of a solve does not grow with its pivots.
//!
//! A counting global allocator wraps [`System`]; this file holds one
//! `#[test]` so nothing else allocates while it counts. The workload is
//! the max-min fairness recompute's second LP (the refine pass of
//! `gavel-policies`' `MaxMinFairness`): per-job budget rows, per-type
//! capacity rows and a floor row `throughput_m - c_m t >= 0` per job,
//! re-solved through one [`PreparedLp`] from the structural basis
//! "everyone full-time on their best cell", which the dual simplex
//! repairs. At 32 and at 128 jobs the solve must cost the same number of
//! heap blocks although it pivots several times as often on a basis four
//! times the size: the factors, the solve buffers and the per-iteration
//! vectors are sized once per solve, and only the eta file's entry slab
//! grows as pivots append to it.
//!
//! The same solve hinted one column short — the capacity row's slack left
//! out, which the solver puts back when it completes the hint — must cost
//! the same: completion works inside the factorization's own buffers.
//!
//! Run in release too — the profile the benchmark measures:
//! `cargo test --release -p gavel-solver --test alloc_budget`.

use gavel_solver::{BasisEntry, Cmp, ConstraintId, LpProblem, PreparedLp, Sense, VarId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Calls that obtained or grew a heap block (`alloc`, `alloc_zeroed`,
/// `realloc`). A statistic, so `Relaxed`.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the counter touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes (its result is dropped outside the count).
fn count<T>(f: impl FnOnce() -> T) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(out);
    made
}

/// Accelerator types, and the speed of each relative to the first.
const SPEEDUP: [f64; 3] = [1.0, 2.1, 3.4];

/// Allocations and dual pivots of the refine solve at `n` jobs, hinted with
/// the whole structural basis or (`short`) without one capacity slack.
fn refine_solve(n: usize, short: bool) -> (usize, usize) {
    // Job `m`'s throughput on type `j`: the type's speed-up, scaled per job
    // and bent per type so best cells differ between jobs.
    let tput = |m: usize, j: usize| {
        let bend = ((m * 7 + j * 5) % 11) as f64 / 10.0;
        SPEEDUP[j] * (0.5 + ((m * 37) % 17) as f64 / 16.0) * (0.6 + bend)
    };
    let workers = (n / 4).max(1) as f64;
    let mut lp = LpProblem::new(Sense::Maximize);
    let x: Vec<Vec<VarId>> = (0..n)
        .map(|m| {
            let cell = |j| lp.add_var(&format!("x_{m}_{j}"), 0.0, f64::INFINITY, 0.0);
            (0..SPEEDUP.len()).map(cell).collect()
        })
        .collect();
    let t = lp.add_var("t", 0.0, f64::INFINITY, 1.0);
    let budget: Vec<ConstraintId> = x
        .iter()
        .map(|row| {
            lp.add_constraint(
                &row.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
                Cmp::Le,
                1.0,
            )
        })
        .collect();
    let capacity: Vec<ConstraintId> = (0..SPEEDUP.len())
        .map(|j| {
            lp.add_constraint(
                &x.iter().map(|row| (row[j], 1.0)).collect::<Vec<_>>(),
                Cmp::Le,
                workers,
            )
        })
        .collect();
    // `c_m`: the job's throughput under an equal share of every type.
    let share = workers / n as f64;
    let c: Vec<f64> = (0..n)
        .map(|m| (0..SPEEDUP.len()).map(|j| share * tput(m, j)).sum())
        .collect();
    let mut floors = Vec::with_capacity(n);
    let mut best = Vec::with_capacity(n);
    for (m, row) in x.iter().enumerate() {
        let mut terms: Vec<(VarId, f64)> = row
            .iter()
            .enumerate()
            .map(|(j, &v)| (v, tput(m, j)))
            .collect();
        terms.push((t, -c[m]));
        floors.push(lp.add_constraint(&terms, Cmp::Ge, 0.0));
        let fastest = (0..SPEEDUP.len()).max_by(|&a, &b| tput(m, a).total_cmp(&tput(m, b)));
        best.push(BasisEntry::Var(row[fastest.unwrap_or(0)]));
    }
    let mut prep = PreparedLp::new(lp).expect("well-formed LP");

    // Max t from the origin, then the refine pass patched in place.
    let slack = |row: &ConstraintId| BasisEntry::Slack(*row);
    let mut origin: Vec<BasisEntry> = budget.iter().chain(&capacity).map(slack).collect();
    origin.extend_from_slice(&best);
    let hint = prep.basis_hint(&origin);
    let (sol, _) = prep.solve(hint.as_ref()).expect("max t solves");
    prep.set_bounds(t, sol.value(t) * (1.0 - 1e-7), f64::INFINITY);
    prep.set_objective_coeff(t, 0.0);
    for (m, row) in x.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            prep.set_objective_coeff(v, tput(m, j) / c[m]);
        }
    }
    let mut full_time = best;
    full_time.extend(capacity.iter().chain(&floors).map(slack));
    if short {
        full_time.retain(|&entry| entry != slack(&capacity[0]));
    }
    let hint = prep.basis_hint(&full_time);

    let mut outcome = None;
    let allocations = count(|| outcome = Some(prep.solve(hint.as_ref())));
    let (sol, _) = outcome.expect("counted").expect("refine solves");
    assert_eq!(sol.stats.warm_hits, 1, "{:?}", sol.stats);
    assert_eq!(sol.stats.pivots_phase1, 0, "{:?}", sol.stats);
    (allocations, sol.stats.dual_pivots)
}

#[test]
fn a_solve_allocates_a_constant_number_of_blocks() {
    // The budget is the production path's: the dense re-solve the debug
    // cross-check switches on allocates per solve. One test per binary,
    // so no other thread reads the variable.
    std::env::remove_var("GAVEL_LP_CROSSCHECK");
    let (small, small_pivots) = refine_solve(32, false);
    let (large, large_pivots) = refine_solve(128, false);
    println!(
        "allocations per refine solve: {small} at 32 jobs ({small_pivots} dual pivots), \
         {large} at 128 ({large_pivots})"
    );
    let short = [32, 128].map(|n| refine_solve(n, true));
    assert_eq!(
        short,
        [(small, small_pivots), (large, large_pivots)],
        "a hint one column short"
    );
    assert!(
        small_pivots > 0 && large_pivots > 2 * small_pivots,
        "the dual path must carry the solve"
    );
    // Per solve: the hinted state, the factors' buffers, the solver's
    // vectors and what the solve returns, each once — and the eta file's
    // entry slab, which doubles as pivots append to it and is emptied, not
    // freed, on every refactorization. The slab is the one term that
    // depends on the workload; at these two sizes it stops at the same
    // capacity. (With a vector per pivot and per factor column the same
    // solves took 560 and 3,238 blocks.)
    assert_eq!(
        (small, large),
        (BUDGET, BUDGET),
        "heap blocks per refine solve"
    );
}

/// Heap blocks one refine solve takes, as measured at both sizes.
const BUDGET: usize = 33;
