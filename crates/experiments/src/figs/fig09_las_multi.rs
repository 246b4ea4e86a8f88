//! Figure 9: LAS-family policies, continuous-multiple trace (the Microsoft
//! scale-factor mix: 70% one worker, 25% two-to-four, 5% eight).
//!
//! Run: `cargo run --release -p gavel-experiments --bin gavel-exp -- fig09_las_multi`

use crate::{jct_cdfs_at, jct_sweep, NamedFactory, Scale};
use gavel_core::Policy;
use gavel_policies::{AgnosticLas, GandivaPolicy, MaxMinFairness};
use gavel_sim::SimConfig;
use gavel_workloads::{cluster_simulated, generate, Oracle, TraceConfig};

pub fn run(scale: Scale) {
    let num_jobs = scale.num_jobs(60, 140, 400);
    // Multi-worker jobs consume ~1.85 workers each on average, so the
    // sustainable rate is lower than in Figure 8.
    let lambdas: Vec<f64> = match scale {
        Scale::Smoke | Scale::Quick => vec![0.6, 1.2],
        Scale::Standard => vec![0.6, 1.2, 1.8],
        Scale::Full => vec![0.5, 1.0, 1.5, 2.0, 2.5],
    };
    let seeds: Vec<u64> = scale.seeds(1, 2, 3);
    let oracle = Oracle::new();

    let trace_fn = move |lam: f64, seed: u64| {
        generate(
            &TraceConfig::continuous_multiple(lam, num_jobs, seed),
            &oracle,
        )
    };
    let cfg_fn = |name: &str| {
        let mut c = SimConfig::new(cluster_simulated());
        if name.contains("SS") {
            c = c.with_space_sharing();
        }
        c
    };

    let las: &(dyn Fn(u64) -> Box<dyn Policy> + Sync) = &|_| Box::new(AgnosticLas::new());
    let gavel: &(dyn Fn(u64) -> Box<dyn Policy> + Sync) = &|_| Box::new(MaxMinFairness::new());
    let gavel_ss: &(dyn Fn(u64) -> Box<dyn Policy> + Sync) =
        &|_| Box::new(MaxMinFairness::with_space_sharing());
    let gandiva: &(dyn Fn(u64) -> Box<dyn Policy> + Sync) = &|s| Box::new(GandivaPolicy::new(s));
    let factories: Vec<NamedFactory<'_>> = vec![
        ("LAS", las),
        ("Gavel", gavel),
        ("Gavel w/ SS", gavel_ss),
        ("LAS w/ Gandiva SS", gandiva),
    ];

    jct_sweep(
        "Figure 9a: average JCT (hours) vs input job rate, continuous-multiple",
        &factories,
        &lambdas,
        &seeds,
        &trace_fn,
        &cfg_fn,
    );
    jct_cdfs_at(
        "Figure 9b: JCT CDF summaries",
        &factories,
        lambdas[lambdas.len() - 2],
        seeds[0],
        &trace_fn,
        &cfg_fn,
    );
    println!(
        "\nShape check (paper): heterogeneity-aware LAS cuts average JCT up to \
         2.2x on the multi-worker trace; space sharing helps less than on the \
         single-worker trace (distributed jobs cannot pack)."
    );
}
