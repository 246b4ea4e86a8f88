//! Figure 20 (Appendix): LAS with priorities — 20% of jobs get weight 5 —
//! heterogeneity-agnostic vs heterogeneity-aware, continuous-multiple.
//! Reports average JCT of the high- and low-priority classes separately.
//!
//! Run: `cargo run --release -p gavel-experiments --bin gavel-exp -- fig20_las_priorities`

use crate::{mean, print_table, Scale};
use gavel_core::Policy;
use gavel_policies::{AgnosticLas, MaxMinFairness};
use gavel_sim::SimConfig;
use gavel_workloads::{assign_priorities, cluster_simulated, generate, Oracle, TraceConfig};

pub fn run(scale: Scale) {
    let num_jobs = scale.num_jobs(60, 140, 400);
    let lambdas: Vec<f64> = match scale {
        Scale::Smoke | Scale::Quick => vec![0.6, 1.2],
        Scale::Standard => vec![0.6, 1.2, 1.8],
        Scale::Full => vec![0.5, 1.0, 1.5, 2.0, 2.5],
    };
    let seeds: Vec<u64> = scale.seeds(1, 2, 3);
    let oracle = Oracle::new();
    let high_weight = 5.0;

    let trace_fn = |lam: f64, seed: u64| {
        let mut t = generate(
            &TraceConfig::continuous_multiple(lam, num_jobs, seed),
            &oracle,
        );
        assign_priorities(&mut t, 0.2, high_weight, seed.wrapping_add(99));
        t
    };
    let cfg = SimConfig::new(cluster_simulated());

    let mut rows = Vec::new();
    for &lam in &lambdas {
        let mut row = vec![format!("{lam:.1}")];
        for (_, policy) in [
            ("LAS", &AgnosticLas::new() as &dyn Policy),
            ("Gavel", &MaxMinFairness::new()),
        ] {
            let (mut high, mut low) = (Vec::new(), Vec::new());
            for &s in &seeds {
                let trace = trace_fn(lam, s);
                let result = gavel_sim::run(policy, &trace, &cfg);
                high.push(mean(&result.jct_cdf_hours(|j| j.weight > 1.0)));
                low.push(mean(&result.jct_cdf_hours(|j| j.weight <= 1.0)));
            }
            row.push(format!("{:.1}", mean(&high)));
            row.push(format!("{:.1}", mean(&low)));
        }
        rows.push(row);
    }
    print_table(
        "Figure 20: average JCT (hours) by priority class",
        &[
            "jobs/hr",
            "LAS (high)",
            "LAS (low)",
            "Gavel (high)",
            "Gavel (low)",
        ],
        &rows,
    );
    println!(
        "\nShape check (paper): at high load Gavel cuts high-priority JCT ~1.5x \
         and low-priority JCT ~2.7x versus agnostic LAS, with high-priority jobs \
         finishing faster than low-priority ones under both."
    );
}
