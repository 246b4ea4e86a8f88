//! Figure 16 (Appendix): FIFO policies on the continuous-single trace.
//!
//! Run: `cargo run --release -p gavel-experiments --bin gavel-exp -- fig16_fifo_single`

use crate::{jct_cdfs_at, jct_sweep, NamedFactory, Scale};
use gavel_core::Policy;
use gavel_policies::{FifoAgnostic, FifoHet};
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

    let fifo: &(dyn Fn(u64) -> Box<dyn Policy> + Sync) = &|_| Box::new(FifoAgnostic::new());
    let gavel: &(dyn Fn(u64) -> Box<dyn Policy> + Sync) = &|_| Box::new(FifoHet::new());
    let gavel_ss: &(dyn Fn(u64) -> Box<dyn Policy> + Sync) =
        &|_| Box::new(FifoHet::with_space_sharing());
    let factories: Vec<NamedFactory<'_>> =
        vec![("FIFO", fifo), ("Gavel", gavel), ("Gavel w/ SS", gavel_ss)];

    jct_sweep(
        "Figure 16a: average JCT (hours) vs input job rate, FIFO, continuous-single",
        &factories,
        &lambdas,
        &seeds,
        &trace_fn,
        &cfg_fn,
    );
    jct_cdfs_at(
        "Figure 16b: JCT CDF summaries",
        &factories,
        lambdas[lambdas.len() - 2],
        seeds[0],
        &trace_fn,
        &cfg_fn,
    );
    println!(
        "\nShape check (paper): heterogeneity-aware FIFO cuts average JCT up to \
         2.7x, and up to 3.8x with space sharing, on the single-worker trace."
    );
}
