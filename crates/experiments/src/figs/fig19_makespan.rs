//! Figure 19 (Appendix): makespan vs number of jobs on the static-multiple
//! trace: agnostic FIFO, Gandiva, Gavel's makespan policy, and Gavel's
//! makespan policy with space sharing.
//!
//! Run: `cargo run --release -p gavel-experiments --bin gavel-exp -- fig19_makespan`

use crate::{print_table, Scale};
use gavel_core::Policy;
use gavel_policies::{FifoAgnostic, GandivaPolicy, MinMakespan};
use gavel_sim::{RecomputeCadence, SimConfig};
use gavel_workloads::{cluster_simulated, generate, Oracle, TraceConfig};

pub fn run(scale: Scale) {
    let sizes: Vec<usize> = match scale {
        Scale::Smoke => vec![4],
        Scale::Quick => vec![30, 60],
        Scale::Standard => vec![50, 100, 150],
        Scale::Full => vec![100, 300, 500, 700],
    };
    let oracle = Oracle::new();

    let mut rows = Vec::new();
    for &n in &sizes {
        let trace = generate(&TraceConfig::static_multiple(n, 17), &oracle);
        let mut row = vec![n.to_string()];
        let configs: Vec<(&str, Box<dyn Policy>, bool)> = vec![
            ("FIFO", Box::new(FifoAgnostic::new()), false),
            ("Gandiva", Box::new(GandivaPolicy::new(11)), true),
            ("Gavel", Box::new(MinMakespan::new()), false),
            ("Gavel w/ SS", Box::new(MinMakespan::new()), true),
        ];
        for (_, policy, ss) in &configs {
            let mut cfg = SimConfig::new(cluster_simulated());
            if *ss {
                cfg = cfg.with_space_sharing();
            }
            // Batch the completion bursts of a static trace.
            cfg.recompute = RecomputeCadence::ThrottledResets(10);
            let result = gavel_sim::run(policy.as_ref(), &trace, &cfg);
            // A round planned from the fallback split is not this policy's.
            assert_eq!(
                result.policy_failures,
                0,
                "{} at {n} jobs: {:?}",
                policy.name(),
                result.policy_failure_kinds
            );
            row.push(format!("{:.0}", result.makespan / 3600.0));
        }
        rows.push(row);
    }
    print_table(
        "Figure 19: makespan (hours) vs number of jobs (static-multiple trace)",
        &["jobs", "FIFO", "Gandiva", "Gavel", "Gavel w/ SS"],
        &rows,
    );
    println!(
        "\nShape check (paper): Gavel cuts makespan ~2.5x vs FIFO and ~1.4x vs \
         Gandiva; space sharing buys a further ~8% when the job count is high."
    );
}
