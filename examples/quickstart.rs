//! Quickstart: compute a heterogeneity-aware fair allocation and realize
//! it with the round-based mechanism.
//!
//! This walks the paper's own worked example (§4.1): three jobs with
//! different V100:K80 speedups sharing one V100 and one K80.
//!
//! Run: `cargo run --release --example quickstart`

use gavel::prelude::*;
use std::collections::HashMap;

fn main() {
    // A tiny heterogeneous cluster: one V100 and one K80.
    let cluster = ClusterSpec::new(&[("v100", 1, 1, 2.48), ("k80", 1, 1, 0.45)]);

    // Three jobs with throughputs (iterations/s) per type — job 0 speeds up
    // 4x on the V100, job 2 only 2x.
    let (combos, tensor) =
        gavel::core::tensor_from_job_matrix(&[vec![4.0, 1.0], vec![3.0, 1.0], vec![2.0, 1.0]]);
    let jobs: Vec<PolicyJob> = (0..3)
        .map(|m| PolicyJob::simple(JobId(m), 100_000.0))
        .collect();

    // 1. Policy: heterogeneity-aware max-min fairness (LAS).
    let input = PolicyInput {
        jobs: &jobs,
        combos: &combos,
        tensor: &tensor,
        cluster: &cluster,
    };
    let alloc = MaxMinFairness::new()
        .compute_allocation(&input)
        .expect("allocation");
    println!("Optimal allocation X (rows = jobs, cols = [v100, k80]):");
    for (k, combo) in alloc.combos().combos().iter().enumerate() {
        let row: Vec<String> = (0..2)
            .map(|j| format!("{:.2}", alloc.get(k, gavel::core::AccelIdx(j))))
            .collect();
        let tput = alloc.effective_throughput(&tensor, combo.a);
        println!(
            "  {combo}: [{}]  -> effective throughput {tput:.2} it/s",
            row.join(", ")
        );
    }

    // 2. Mechanism: realize the allocation over 6-minute rounds.
    let mut sched = RoundScheduler::new(cluster);
    let sf: HashMap<JobId, u32> = jobs.iter().map(|j| (j.id, 1)).collect();
    println!("\nFirst six rounds of the round-based mechanism:");
    for round in 0..6 {
        let plan = sched.plan_round_cached(&alloc, 0, &sf, None);
        let desc: Vec<String> = plan
            .assignments
            .iter()
            .map(|a| format!("{} on {}", a.combo, ["v100", "k80"][a.accel.0]))
            .collect();
        println!("  round {round}: {}", desc.join(", "));
        sched.record(&plan, 360.0);
    }

    // 3. Check: realized time fractions track the target allocation.
    println!("\nReceived time fractions after 200 rounds:");
    for _ in 0..194 {
        let plan = sched.plan_round_cached(&alloc, 0, &sf, None);
        sched.record(&plan, 360.0);
    }
    let total = 200.0 * 360.0;
    for (k, combo) in alloc.combos().combos().iter().enumerate() {
        let got: Vec<String> = (0..2)
            .map(|j| {
                format!(
                    "{:.2}",
                    sched.time_received(k, gavel::core::AccelIdx(j)) / total
                )
            })
            .collect();
        let want: Vec<String> = (0..2)
            .map(|j| format!("{:.2}", alloc.get(k, gavel::core::AccelIdx(j))))
            .collect();
        println!(
            "  {combo}: received [{}] vs target [{}]",
            got.join(", "),
            want.join(", ")
        );
    }
}
