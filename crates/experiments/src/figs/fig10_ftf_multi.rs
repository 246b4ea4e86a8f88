//! Figure 10: finish-time fairness, heterogeneity-agnostic (Themis-style)
//! vs heterogeneity-aware, on the continuous-multiple trace. Reports the
//! average-JCT sweep and the per-job FTF (rho) CDF summaries.
//!
//! Run: `cargo run --release -p gavel-experiments --bin gavel-exp -- fig10_ftf_multi`

use crate::{cdf_summary, jct_sweep, run_full, NamedFactory, Scale};
use gavel_core::Policy;
use gavel_policies::{FinishTimeFairness, FtfAgnostic};
use gavel_sim::SimConfig;
use gavel_workloads::{cluster_simulated, generate, Oracle, TraceConfig};

pub fn run(scale: Scale) {
    let num_jobs = scale.num_jobs(50, 120, 350);
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
    let cfg_fn = |_: &str| SimConfig::new(cluster_simulated());

    let ftf: &(dyn Fn(u64) -> Box<dyn Policy> + Sync) = &|_| Box::new(FtfAgnostic::new());
    let gavel: &(dyn Fn(u64) -> Box<dyn Policy> + Sync) = &|_| Box::new(FinishTimeFairness::new());
    let factories: Vec<NamedFactory<'_>> = vec![("FTF", ftf), ("Gavel", gavel)];

    jct_sweep(
        "Figure 10a: average JCT (hours) vs input job rate (FTF policies)",
        &factories,
        &lambdas,
        &seeds,
        &trace_fn,
        &cfg_fn,
    );

    // Figure 10b: per-job finish-time-fairness (rho) CDFs at one load.
    let lam = lambdas[lambdas.len() - 2];
    println!("\n== Figure 10b: FTF (rho) CDF summaries (λ = {lam}) ==");
    let mut avgs = Vec::new();
    for (name, factory) in &factories {
        let trace = trace_fn(lam, seeds[0]);
        let policy = factory(seeds[0]);
        let result = run_full(policy.as_ref(), &trace, &cfg_fn(name));
        let cdf = result.ftf_cdf();
        println!(
            "{name:>8}: {}  (avg rho {:.2})",
            cdf_summary(&cdf),
            result.avg_ftf()
        );
        avgs.push(result.avg_ftf());
    }
    if avgs.len() == 2 && avgs[1] > 0.0 {
        println!(
            "\nShape check (paper): the heterogeneity-aware policy cuts average JCT \
             ~3x and improves average FTF ~2.8x. Measured FTF improvement: {:.2}x.",
            avgs[0] / avgs[1]
        );
    }
}
