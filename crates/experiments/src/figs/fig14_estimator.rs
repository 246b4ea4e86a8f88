//! Figure 14: impact of throughput estimation. SS-aware LAS with oracle
//! pair throughputs vs estimated pair throughputs (matrix completion +
//! fingerprinting) vs LAS without space sharing, on the 12-GPU cluster.
//!
//! Run: `cargo run --release -p gavel-experiments --bin gavel-exp -- fig14_estimator`

use crate::{mean, print_table, run_avg_jct, Scale};
use gavel_policies::MaxMinFairness;
use gavel_sim::SimConfig;
use gavel_workloads::{cluster_twelve, generate, Oracle, TraceConfig};

pub fn run(scale: Scale) {
    let num_jobs = scale.num_jobs(40, 90, 250);
    let lambdas: Vec<f64> = match scale {
        Scale::Smoke | Scale::Quick => vec![0.2, 0.4],
        Scale::Standard => vec![0.2, 0.4, 0.6, 0.8],
        Scale::Full => vec![0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
    };
    let seeds: Vec<u64> = scale.seeds(1, 2, 3);
    let oracle = Oracle::new();

    let mut rows = Vec::new();
    for &lam in &lambdas {
        let mut cells = vec![format!("{lam:.1}")];
        for mode in ["oracle", "estimated", "no-ss"] {
            let jcts: Vec<f64> = seeds
                .iter()
                .map(|&s| {
                    let trace =
                        generate(&TraceConfig::continuous_single(lam, num_jobs, s), &oracle);
                    let cfg = SimConfig::new(cluster_twelve());
                    let mut cfg = match mode {
                        "oracle" => cfg.with_space_sharing(),
                        // Full §6 loop: profile arrivals, refine online
                        // from mechanism feedback.
                        "estimated" => cfg.with_estimated_pairs(),
                        _ => cfg,
                    };
                    // Seeds the estimator's profiling; unused otherwise.
                    cfg.seed = s;
                    run_avg_jct(&MaxMinFairness::new(), &trace, &cfg)
                })
                .collect();
            cells.push(format!("{:.1}", mean(&jcts)));
        }
        rows.push(cells);
    }
    print_table(
        "Figure 14: average JCT (hours) on the 12-GPU cluster",
        &[
            "jobs/hr",
            "Gavel w/ SS (Oracle)",
            "Gavel w/ SS (Estimated)",
            "Gavel",
        ],
        &rows,
    );
    println!(
        "\nShape check (paper): estimated throughputs track the oracle closely \
         (small JCT increase at high load); both space-sharing variants beat \
         plain LAS once the cluster is contended."
    );
}
