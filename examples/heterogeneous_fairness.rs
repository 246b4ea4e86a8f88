//! Simulates a shared research cluster (the paper's motivating scenario):
//! a mixed stream of DNN training jobs on V100s/P100s/K80s, scheduled with
//! a heterogeneity-agnostic fair scheduler (Tiresias-style LAS) versus
//! Gavel's heterogeneity-aware LAS, with and without space sharing.
//!
//! Run: `cargo run --release --example heterogeneous_fairness`

use gavel::prelude::*;

fn main() {
    let oracle = Oracle::new();
    // 60 jobs arriving at 1.5 jobs/hour on a 12-GPU cluster.
    let trace = generate(&TraceConfig::continuous_single(1.5, 60, 42), &oracle);
    println!(
        "Trace: {} single-GPU jobs, Poisson arrivals, Table 2 model mix\n",
        trace.len()
    );

    let runs: Vec<(&str, Box<dyn Policy>, bool)> = vec![
        (
            "LAS (heterogeneity-agnostic)",
            Box::new(AgnosticLas::new()),
            false,
        ),
        (
            "Gavel (heterogeneity-aware)",
            Box::new(MaxMinFairness::new()),
            false,
        ),
        (
            "Gavel w/ space sharing",
            Box::new(MaxMinFairness::new()),
            true,
        ),
    ];

    let mut baseline = None;
    for (name, policy, ss) in &runs {
        let mut cfg = SimConfig::new(cluster_twelve());
        if *ss {
            cfg = cfg.with_space_sharing();
        }
        let result = gavel::sim::run(policy.as_ref(), &trace, &cfg);
        let jct = result.steady_state_avg_jct_hours(6, 6);
        let speedup = baseline.get_or_insert(jct);
        println!(
            "{name:>30}: avg JCT {jct:6.1} h | p90 {:6.1} h | util {:4.0}% | {:.2}x vs agnostic",
            result.jct_percentile_hours(90.0),
            result.utilization * 100.0,
            *speedup / jct,
        );
    }
    println!(
        "\nThe aware policy routes each model to the GPU generation where its\n\
         speedup is largest (ResNet-50 to V100s, A3C to K80s), which is exactly\n\
         the effect Figure 1 of the paper motivates."
    );
}
