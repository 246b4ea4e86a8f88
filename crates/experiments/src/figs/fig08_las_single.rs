//! Figure 8: LAS-family policies on the simulated 108-GPU cluster,
//! continuous-single trace. Average JCT vs input job rate, plus short/long
//! JCT CDF summaries at a reference load.
//!
//! Policies: heterogeneity-agnostic LAS (Tiresias-style), Gavel
//! (heterogeneity-aware LAS), Gavel w/ SS, LAS w/ Gandiva-style ad-hoc
//! space sharing, and AlloX.
//!
//! Run: `cargo run --release -p gavel-experiments --bin gavel-exp -- fig08_las_single`

use crate::{jct_cdfs_at, jct_sweep, NamedFactory, Scale};
use gavel_core::Policy;
use gavel_policies::{AgnosticLas, Allox, GandivaPolicy, MaxMinFairness};
use gavel_sim::SimConfig;
use gavel_workloads::{cluster_simulated, generate, Oracle, TraceConfig};

pub fn run(scale: Scale) {
    let num_jobs = scale.num_jobs(60, 140, 400);
    let lambdas: Vec<f64> = match scale {
        Scale::Smoke | Scale::Quick => vec![1.0, 2.0],
        Scale::Standard => vec![1.0, 2.0, 3.0],
        Scale::Full => vec![1.0, 2.0, 3.0, 4.0, 5.0],
    };
    let seeds: Vec<u64> = scale.seeds(1, 2, 3);
    let oracle = Oracle::new();

    let trace_fn = move |lam: f64, seed: u64| {
        generate(
            &TraceConfig::continuous_single(lam, num_jobs, seed),
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
    let allox: &(dyn Fn(u64) -> Box<dyn Policy> + Sync) = &|_| Box::new(Allox::new());
    let factories: Vec<NamedFactory<'_>> = vec![
        ("LAS", las),
        ("Gavel", gavel),
        ("Gavel w/ SS", gavel_ss),
        ("LAS w/ Gandiva SS", gandiva),
        ("AlloX", allox),
    ];

    jct_sweep(
        "Figure 8a: average JCT (hours) vs input job rate, continuous-single",
        &factories,
        &lambdas,
        &seeds,
        &trace_fn,
        &cfg_fn,
    );
    jct_cdfs_at(
        "Figure 8b: JCT CDF summaries",
        &factories,
        lambdas[lambdas.len() - 2],
        seeds[0],
        &trace_fn,
        &cfg_fn,
    );
    println!(
        "\nShape check (paper): heterogeneity-aware policies sustain higher load \
         and cut average JCT up to 3.5x on this trace; Gavel matches AlloX's \
         average JCT while avoiding its long-job starvation tail."
    );
}
