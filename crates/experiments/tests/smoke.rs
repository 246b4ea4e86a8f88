//! Smoke tests: every experiment must run to completion at
//! `Scale::Smoke`. Trace-driven figures shrink to tiny 4-job traces with
//! a single seed; figures with fixed small inputs (fig01/fig15 tables,
//! the fig11/fig21 18-job timelines) ignore the scale and run as-is. This
//! keeps the `fig*`/`table*`/`sec7*`/`svc_*` experiments from silently
//! rotting — `gavel-exp` calls the exact `run()` entry points exercised
//! here. The `svc_replay` smoke run doubles as a CI check that
//! submission-log replay stays bit-exact.

use gavel_experiments::{figs, Scale};

macro_rules! smoke {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            figs::$name::run(Scale::Smoke);
        }
    )*};
}

smoke!(
    fig01_throughputs,
    fig08_las_single,
    fig09_las_multi,
    fig10_ftf_multi,
    fig11_hierarchical,
    fig12_scalability,
    fig13_mechanism,
    fig14_estimator,
    fig15_colocation,
    fig16_fifo_single,
    fig17_ftf_single,
    fig18_fifo_multi,
    fig19_makespan,
    fig20_las_priorities,
    fig21_hier_fifo,
    sec7_cost_policies,
    svc_recovery,
    svc_replay,
    table3_endtoend,
);

/// The fig12 extended sweep (snapshot-cache scaling, hierarchical solve
/// over the cached snapshot) shares its `run_extended` entry point with
/// `gavel-exp fig12_scalability --extended`.
#[test]
fn fig12_scalability_extended() {
    figs::fig12_scalability::run_extended(Scale::Smoke);
}
