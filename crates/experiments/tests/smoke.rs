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
    (sweeps: $($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            figs::sweeps::$name(Scale::Smoke);
        }
    )*};
}

smoke!(
    fig01_throughputs,
    fig11_hierarchical,
    fig12_scalability,
    fig13_mechanism,
    fig14_estimator,
    fig15_colocation,
    fig19_makespan,
    fig20_las_priorities,
    fig21_hier_fifo,
    sec7_cost_policies,
    svc_recovery,
    svc_replay,
    table3_endtoend,
);

smoke!(
    sweeps: fig08_las_single,
    fig09_las_multi,
    fig10_ftf_multi,
    fig16_fifo_single,
    fig17_ftf_single,
    fig18_fifo_multi,
);

/// `gavel-exp` runs what it was asked or nothing: a misspelt flag, a
/// second scale flag or a flag it does not have prints the usage and
/// exits 2, like an unknown name.
#[test]
fn gavel_exp_refuses_arguments_it_does_not_recognise() {
    let gavel_exp = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_gavel-exp"))
            .args(args)
            .output()
            .expect("gavel-exp runs")
    };
    let ok = gavel_exp(&["fig01_throughputs", "--smoke"]);
    assert!(ok.status.success(), "{ok:?}");
    assert!(!ok.stdout.is_empty());
    for refused in [
        &["fig01_throughputs", "--smok"][..],
        &["fig01_throughputs", "--smoke", "--quick"],
        &["fig12_scalability", "--smoke", "--extended"],
    ] {
        let out = gavel_exp(refused);
        assert_eq!(out.status.code(), Some(2), "{refused:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{refused:?} ran the experiment");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with("usage: gavel-exp"),
            "{refused:?}: {stderr}"
        );
    }
}
