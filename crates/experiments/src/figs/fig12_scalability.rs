//! Figure 12: policy solve-time scaling with the number of active jobs,
//! for the LAS and hierarchical policies, with and without space sharing.
//! The cluster grows with the job count, as in the paper.
//!
//! Note on scale: the paper's cvxpy/ECOS stack reaches 2048 jobs in ~8.5
//! minutes for hierarchical w/ SS. The sparse revised simplex with
//! warm-started basis reuse (`gavel-solver`) covers the paper's full range:
//! the default sweep stops at 512 jobs to keep the figure quick, and
//! `--full` extends it to the paper's 2048-job hierarchical-with-space-
//! sharing point. The snapshot cache's populate and churn steps and whole
//! hierarchical solves are timed, with gates, by `benches/sim.rs` and
//! `benches/solver.rs` (`hier/solve/*`).
//!
//! Run: `cargo run --release -p gavel-experiments --bin gavel-exp -- fig12_scalability`

use crate::{print_table, Scale};
use gavel_core::{Policy, PolicyInput, PolicyJob};
use gavel_policies::{EntityPolicy, Hierarchical, MaxMinFairness};
use gavel_workloads::{
    build_singleton_tensor, build_tensor_with_pairs, cluster_scaled, generate, JobSpec, Oracle,
    PairOptions, TraceConfig,
};
use std::time::Instant;

pub fn run(scale: Scale) {
    let sizes: Vec<usize> = match scale {
        Scale::Smoke => vec![4, 8],
        Scale::Quick => vec![32, 64],
        Scale::Standard => vec![32, 64, 128, 256, 512],
        Scale::Full => vec![32, 64, 128, 256, 512, 1024, 2048],
    };
    let oracle = Oracle::new();

    let mut rows = Vec::new();
    for &n in &sizes {
        let trace = generate(&TraceConfig::static_single(n, 5), &oracle);
        let specs: Vec<JobSpec> = trace
            .iter()
            .map(|t| JobSpec {
                id: t.id,
                config: t.config,
                scale_factor: 1,
            })
            .collect();
        let mut jobs: Vec<PolicyJob> = trace
            .iter()
            .map(|t| PolicyJob::simple(t.id, t.total_steps))
            .collect();
        // Hierarchical: 4 entities, round-robin.
        for (i, j) in jobs.iter_mut().enumerate() {
            j.entity = Some(i % 4);
        }
        let cluster = cluster_scaled((n / 3).max(2));

        let (combos_plain, tensor_plain) = build_singleton_tensor(&oracle, &specs, true);
        let pair_opts = PairOptions {
            min_aggregate: 1.3,
            max_pairs_per_job: 4,
        };
        let (combos_ss, tensor_ss) = build_tensor_with_pairs(&oracle, &specs, true, &pair_opts);

        let time_policy = |policy: &dyn Policy, ss: bool| -> f64 {
            let input = PolicyInput {
                jobs: &jobs,
                combos: if ss { &combos_ss } else { &combos_plain },
                tensor: if ss { &tensor_ss } else { &tensor_plain },
                cluster: &cluster,
            };
            let t0 = Instant::now();
            policy
                .compute_allocation(&input)
                .unwrap_or_else(|e| panic!("{} failed at n={n}: {e}", policy.name()));
            t0.elapsed().as_secs_f64()
        };

        let las = time_policy(&MaxMinFairness::new(), false);
        let las_ss = time_policy(&MaxMinFairness::new(), true);
        let hier = Hierarchical::new(vec![1.0; 4], EntityPolicy::Fairness);
        let hier_t = time_policy(&hier, false);
        // Hierarchical with space sharing only at smaller sizes (the probe
        // LPs over pair rows grow quickly).
        let hier_ss_t = if n <= 256 || scale == Scale::Full {
            Some(time_policy(&hier, true))
        } else {
            None
        };

        rows.push(vec![
            n.to_string(),
            format!("{las:.3}"),
            format!("{las_ss:.3}"),
            format!("{hier_t:.3}"),
            hier_ss_t.map_or("-".into(), |t| format!("{t:.3}")),
        ]);
    }
    print_table(
        "Figure 12: policy solve time (seconds) vs number of jobs",
        &[
            "jobs",
            "LAS",
            "LAS w/ SS",
            "Hierarchical",
            "Hierarchical w/ SS",
        ],
        &rows,
    );
    println!(
        "\nShape check (paper): hierarchical is costlier than LAS; space sharing \
         grows the problem superlinearly; even large instances stay within the \
         sub-10-minute budget the paper deems acceptable."
    );
}
