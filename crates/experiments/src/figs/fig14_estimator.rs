//! Figure 14: impact of throughput estimation. SS-aware LAS with oracle
//! pair throughputs vs estimated pair throughputs (matrix completion +
//! fingerprinting) vs LAS without space sharing, on the 12-GPU cluster,
//! and the gap between the first two — asserted under `MAX_GAP` at
//! `Standard` and `Full`, where neither space-sharing column may be worse
//! than plain LAS at the most contended rate either.
//!
//! Run: `cargo run --release -p gavel-experiments --bin gavel-exp -- fig14_estimator`

use crate::{mean, print_table, run_avg_jct, Scale};
use gavel_policies::MaxMinFairness;
use gavel_sim::SimConfig;
use gavel_workloads::{cluster_twelve, generate, Oracle, TraceConfig};

/// Largest estimated-vs-oracle gap in average JCT the figure accepts, per
/// arrival rate, in the mean over its seeds. From this estimator's own
/// runs: the figure's means read +0.8 … +2.1 % at `Standard` (seeds 0–1)
/// and +0.9 … +3.1 % at `--full` (seeds 0–2); single seeds span
/// +0.0 … +4.4 % (`Standard`, seeds 0–5) and −0.6 … +5.2 % (`--full`,
/// seeds 0–3).
const MAX_GAP: f64 = 0.05;

pub fn run(scale: Scale) {
    let num_jobs = scale.num_jobs(40, 90, 250);
    let lambdas: Vec<f64> = match scale {
        Scale::Smoke | Scale::Quick => vec![0.2, 0.4],
        Scale::Standard => vec![0.2, 0.4, 0.6, 0.8],
        Scale::Full => vec![0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
    };
    let seeds: Vec<u64> = scale.seeds(1, 2, 3);
    let oracle = Oracle::new();
    let checked = matches!(scale, Scale::Standard | Scale::Full);

    // Average JCT at `lam` jobs/hr over the seeds, under a tweaked config.
    let avg_jct = |lam: f64, tweak: fn(SimConfig) -> SimConfig| {
        let jcts: Vec<f64> = seeds
            .iter()
            .map(|&s| {
                let trace = generate(&TraceConfig::continuous_single(lam, num_jobs, s), &oracle);
                let mut cfg = tweak(SimConfig::new(cluster_twelve()));
                // Seeds the estimator's profiling; unused otherwise.
                cfg.seed = s;
                run_avg_jct(&MaxMinFairness::new(), &trace, &cfg)
            })
            .collect();
        mean(&jcts)
    };

    let mut rows = Vec::new();
    for &lam in &lambdas {
        let with_oracle = avg_jct(lam, SimConfig::with_space_sharing);
        // Full §6 loop: profile arrivals, refine online from mechanism
        // feedback.
        let estimated = avg_jct(lam, SimConfig::with_estimated_pairs);
        let plain = avg_jct(lam, |cfg| cfg);
        let gap = estimated / with_oracle - 1.0;
        if checked {
            assert!(
                gap < MAX_GAP,
                "at {lam} jobs/hr estimated pair throughputs cost {:.1}% in average JCT",
                gap * 100.0
            );
        }
        if checked && Some(&lam) == lambdas.last() {
            assert!(
                with_oracle.max(estimated) <= plain,
                "at {lam} jobs/hr space sharing ({with_oracle:.1} h with oracle, \
                 {estimated:.1} h with estimated pair throughputs) is worse than plain LAS \
                 ({plain:.1} h)"
            );
        }
        rows.push(vec![
            format!("{lam:.1}"),
            format!("{with_oracle:.1}"),
            format!("{estimated:.1}"),
            format!("{:+.1}%", gap * 100.0),
            format!("{plain:.1}"),
        ]);
    }
    print_table(
        "Figure 14: average JCT (hours) on the 12-GPU cluster",
        &[
            "jobs/hr",
            "Gavel w/ SS (Oracle)",
            "Gavel w/ SS (Estimated)",
            "gap",
            "Gavel",
        ],
        &rows,
    );
    println!(
        "\nShape check (paper): estimated throughputs track the oracle closely \
         (asserted at the default and --full scales: every gap under {:.0}%); both \
         space-sharing variants beat plain LAS once the cluster is contended \
         (asserted at the highest rate).",
        MAX_GAP * 100.0
    );
}
