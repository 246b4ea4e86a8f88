//! Figure 18 (Appendix): FIFO policies on the continuous-multiple trace.
//!
//! Run: `cargo run --release -p gavel-experiments --bin gavel-exp -- fig18_fifo_multi`

use crate::{jct_cdfs_at, jct_sweep, NamedFactory, Scale};
use gavel_core::Policy;
use gavel_policies::{FifoAgnostic, FifoHet};
use gavel_sim::SimConfig;
use gavel_workloads::{cluster_simulated, generate, Oracle, TraceConfig};

pub fn run(scale: Scale) {
    let num_jobs = scale.num_jobs(60, 140, 400);
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

    let fifo: &(dyn Fn(u64) -> Box<dyn Policy> + Sync) = &|_| Box::new(FifoAgnostic::new());
    let gavel: &(dyn Fn(u64) -> Box<dyn Policy> + Sync) = &|_| Box::new(FifoHet::new());
    let gavel_ss: &(dyn Fn(u64) -> Box<dyn Policy> + Sync) =
        &|_| Box::new(FifoHet::with_space_sharing());
    let factories: Vec<NamedFactory<'_>> =
        vec![("FIFO", fifo), ("Gavel", gavel), ("Gavel w/ SS", gavel_ss)];

    jct_sweep(
        "Figure 18a: average JCT (hours) vs input job rate, FIFO, continuous-multiple",
        &factories,
        &lambdas,
        &seeds,
        &trace_fn,
        &cfg_fn,
    );
    jct_cdfs_at(
        "Figure 18b: JCT CDF summaries",
        &factories,
        lambdas[lambdas.len() - 2],
        seeds[0],
        &trace_fn,
        &cfg_fn,
    );
    println!(
        "\nShape check (paper): heterogeneity-aware FIFO still wins on the \
         multi-worker trace, with a smaller space-sharing bonus (1.1x vs 1.4x)."
    );
}
