//! Figure 17 (Appendix): finish-time fairness + AlloX, continuous-single.
//!
//! Run: `cargo run --release -p gavel-experiments --bin gavel-exp -- fig17_ftf_single`

use crate::{cdf_summary, jct_sweep, run_full, NamedFactory, Scale};
use gavel_core::Policy;
use gavel_policies::{Allox, FinishTimeFairness, FtfAgnostic};
use gavel_sim::SimConfig;
use gavel_workloads::{cluster_simulated, generate, Oracle, TraceConfig};

pub fn run(scale: Scale) {
    let num_jobs = scale.num_jobs(50, 120, 350);
    let lambdas: Vec<f64> = match scale {
        Scale::Smoke | Scale::Quick => vec![1.0, 2.0],
        Scale::Standard => vec![1.0, 2.0, 3.0],
        Scale::Full => vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
    };
    let seeds: Vec<u64> = scale.seeds(1, 2, 3);
    let oracle = Oracle::new();

    let trace_fn = move |lam: f64, seed: u64| {
        generate(
            &TraceConfig::continuous_single(lam, num_jobs, seed),
            &oracle,
        )
    };
    let cfg_fn = |_: &str| SimConfig::new(cluster_simulated());

    let ftf: &(dyn Fn(u64) -> Box<dyn Policy> + Sync) = &|_| Box::new(FtfAgnostic::new());
    let gavel: &(dyn Fn(u64) -> Box<dyn Policy> + Sync) = &|_| Box::new(FinishTimeFairness::new());
    let allox: &(dyn Fn(u64) -> Box<dyn Policy> + Sync) = &|_| Box::new(Allox::new());
    let factories: Vec<NamedFactory<'_>> = vec![("FTF", ftf), ("Gavel", gavel), ("AlloX", allox)];

    jct_sweep(
        "Figure 17a: average JCT (hours) vs input job rate (FTF family, single)",
        &factories,
        &lambdas,
        &seeds,
        &trace_fn,
        &cfg_fn,
    );
    let lam = lambdas[lambdas.len() - 2];
    println!("\n== Figure 17b: FTF (rho) CDF summaries (λ = {lam}) ==");
    for (name, factory) in &factories {
        let trace = trace_fn(lam, seeds[0]);
        let policy = factory(seeds[0]);
        let result = run_full(policy.as_ref(), &trace, &cfg_fn(name));
        println!(
            "{name:>8}: {}  (avg rho {:.2})",
            cdf_summary(&result.ftf_cdf()),
            result.avg_ftf()
        );
    }
    println!(
        "\nShape check (paper): the heterogeneity-aware FTF policy dominates the \
         agnostic one; AlloX optimizes average JCT but its rho tail is worse for \
         long jobs (starvation under SJF-like preference)."
    );
}
