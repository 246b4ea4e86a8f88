//! §7.3 "Cost": the cost-policy comparison on the 500-job ResNet-50 + A3C
//! workload (durations {0.5,1,2,4,8} days, SLOs {1.2x,2x,10x}).
//!
//! Reports total dollar cost and SLO violation rates for: maximize
//! throughput (cost-unaware baseline), minimize cost (throughput/$), and
//! minimize cost subject to SLOs.
//!
//! Run: `cargo run --release -p gavel-experiments --bin gavel-exp -- sec7_cost_policies`

use crate::{print_table, run_full, Scale};
use gavel_policies::{MaxTotalThroughput, MinCost, MinCostSlo};
use gavel_sim::SimConfig;
use gavel_workloads::{cluster_simulated, cost_workload, Oracle};

pub fn run(scale: Scale) {
    let oracle = Oracle::new();
    let n = scale.num_jobs(60, 150, 500);
    let trace = cost_workload(n, 1.0, &oracle, 42);

    let cfg = SimConfig::new(cluster_simulated());
    let mut rows = Vec::new();
    let mut costs = Vec::new();
    for (name, policy) in [
        (
            "Maximize throughput",
            &MaxTotalThroughput::new() as &dyn gavel_core::Policy,
        ),
        ("Minimize cost", &MinCost::new()),
        ("Minimize cost w/ SLOs", &MinCostSlo::new()),
    ] {
        let result = run_full(policy, &trace, &cfg);
        costs.push(result.total_cost);
        rows.push(vec![
            name.into(),
            format!("${:.0}", result.total_cost),
            format!("{:.1}%", result.slo_violation_fraction() * 100.0),
            format!("{:.1}", result.makespan / 3600.0),
            format!("{:.0}%", result.utilization * 100.0),
        ]);
    }
    print_table(
        "Section 7.3: cost policies",
        &[
            "policy",
            "total cost",
            "SLO violations",
            "makespan (hrs)",
            "util",
        ],
        &rows,
    );
    println!(
        "\nShape check (paper): min-cost reduces cost ~1.4x vs max-throughput but \
         violates ~35% of SLOs; adding SLO constraints removes violations for a \
         small cost increase (paper: still 1.23x cheaper than the baseline)."
    );
    if costs.len() == 3 && costs[1] > 0.0 {
        println!(
            "Measured: min-cost saves {:.2}x; min-cost-w/-SLO saves {:.2}x.",
            costs[0] / costs[1],
            costs[0] / costs[2]
        );
    }
}
