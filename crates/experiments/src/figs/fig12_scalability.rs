//! Figure 12: policy solve-time scaling with the number of active jobs,
//! for the LAS and hierarchical policies, with and without space sharing.
//! The cluster grows with the job count, as in the paper.
//!
//! Note on scale: the paper's cvxpy/ECOS stack reaches 2048 jobs in ~8.5
//! minutes for hierarchical w/ SS. The sparse revised simplex with
//! warm-started basis reuse (`gavel-solver`) covers the paper's full range:
//! the default sweep stops at 512 jobs to keep the figure quick, and
//! `--full` extends it to the paper's 2048-job hierarchical-with-space-
//! sharing point. See EXPERIMENTS.md.
//!
//! `--extended` switches to [`run_extended`], the snapshot-cache sweep
//! past the paper's ceiling: 4k–16k active jobs through the
//! score-bucketed candidate store, timing populate, churn recomputes,
//! and a hierarchical solve at 8192 jobs (`--full`).
//!
//! Run: `cargo run --release -p gavel-experiments --bin gavel-exp -- fig12_scalability`

use crate::{print_table, Scale};
use gavel_core::{JobId, Policy, PolicyInput, PolicyJob};
use gavel_policies::{EntityPolicy, Hierarchical, MaxMinFairness};
use gavel_sim::SnapshotCache;
use gavel_workloads::{
    build_singleton_tensor, build_tensor_with_pairs, cluster_scaled, generate, JobConfig, JobSpec,
    Oracle, PairOptions, TraceConfig,
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

/// Extended sweep past the paper's 2048-job ceiling: 4k–16k active jobs
/// driven through the incremental [`SnapshotCache`] rather than fresh
/// tensor builds. For each size the sweep times
///
/// - **populate**: admitting all `n` jobs plus the first full snapshot
///   (selection + lazy pair-row materialization);
/// - **recompute**: the steady-state churn step the simulator actually
///   runs — one completion, one arrival, one snapshot — through the
///   score-bucketed candidate store;
/// - **hierarchical solve**: one hierarchical (4-entity fairness)
///   water-filling solve over the same job set (singleton rows — the
///   base sweep covers space sharing's growth separately), at the
///   largest size the LP lands in reasonable wall-clock: 8192 jobs at
///   `--full` (~2 h single-core; the water-filling LP, not the
///   snapshot, is the wall there — see the parallel-solver roadmap
///   item), 2048 by default.
///
/// Run: `cargo run --release -p gavel-experiments --bin gavel-exp -- fig12_scalability --extended`
pub fn run_extended(scale: Scale) {
    let sizes: Vec<usize> = match scale {
        Scale::Smoke => vec![8, 16],
        Scale::Quick => vec![64, 128],
        Scale::Standard => vec![1024, 2048, 4096],
        Scale::Full => vec![4096, 8192, 16384],
    };
    let hier_at = match scale {
        Scale::Smoke | Scale::Quick => *sizes.last().unwrap(),
        Scale::Standard => 2048,
        Scale::Full => 8192,
    };
    let oracle = Oracle::new();
    let pair_opts = PairOptions {
        min_aggregate: 1.3,
        max_pairs_per_job: 4,
    };

    let mut rows = Vec::new();
    for &n in &sizes {
        eprintln!("[fig12-extended] n={n}: populating…");
        let trace = generate(&TraceConfig::static_single(n, 5), &oracle);
        let mut cache = SnapshotCache::new(true, Some(pair_opts));
        let mut jobs: Vec<PolicyJob> = Vec::with_capacity(n);
        let mut specs: Vec<JobSpec> = Vec::with_capacity(n);
        let t0 = Instant::now();
        for (i, t) in trace.iter().enumerate() {
            let spec = JobSpec {
                id: t.id,
                config: t.config,
                scale_factor: 1,
            };
            let mut job = PolicyJob::simple(t.id, t.total_steps);
            job.entity = Some(i % 4);
            jobs.push(job.clone());
            specs.push(spec);
            cache.admit(&oracle, spec, job);
        }
        std::hint::black_box(cache.snapshot(&oracle));
        let populate = t0.elapsed().as_secs_f64();

        // One churn step: complete a job, admit a replacement, snapshot.
        let all_configs = JobConfig::all();
        let mut next_id = n as u64 + 1_000_000;
        let mut victim = 0usize;
        eprintln!("[fig12-extended] n={n}: populate {populate:.1}s; churn recompute…");
        let reps = if n >= 8192 { 1 } else { 3 };
        let recompute = median_secs(reps, || {
            victim = (victim + 17) % cache.len();
            cache.remove(victim);
            jobs.swap_remove(victim);
            specs.swap_remove(victim);
            let id = JobId(next_id);
            next_id += 1;
            let spec = JobSpec {
                id,
                config: all_configs[(id.0 as usize * 7 + 3) % all_configs.len()],
                scale_factor: 1,
            };
            let mut job = PolicyJob::simple(id, 5_000.0);
            job.entity = Some((id.0 % 4) as usize);
            jobs.push(job.clone());
            specs.push(spec);
            cache.admit(&oracle, spec, job);
            std::hint::black_box(cache.snapshot(&oracle));
        });
        eprintln!("[fig12-extended] n={n}: recompute {recompute:.4}s");

        let hier_t = if n == hier_at {
            eprintln!("[fig12-extended] n={n}: hierarchical solve…");
            let (combos, tensor) = build_singleton_tensor(&oracle, &specs, true);
            let cluster = cluster_scaled((n / 3).max(2));
            let input = PolicyInput {
                jobs: &jobs,
                combos: &combos,
                tensor: &tensor,
                cluster: &cluster,
            };
            let hier = Hierarchical::new(vec![1.0; 4], EntityPolicy::Fairness);
            let t0 = Instant::now();
            hier.compute_allocation(&input)
                .unwrap_or_else(|e| panic!("{} failed at n={n}: {e}", hier.name()));
            Some(t0.elapsed().as_secs_f64())
        } else {
            None
        };
        if let Some(t) = hier_t {
            eprintln!("[fig12-extended] n={n}: hierarchical {t:.1}s");
        }

        rows.push(vec![
            n.to_string(),
            format!("{populate:.3}"),
            format!("{recompute:.4}"),
            hier_t.map_or("-".into(), |t| format!("{t:.3}")),
        ]);
    }
    print_table(
        "Figure 12 (extended): snapshot-cache scaling past the paper's 2048-job ceiling",
        &["jobs", "populate (s)", "recompute (s)", "Hierarchical (s)"],
        &rows,
    );
    println!(
        "\nShape check: the churn recompute stays near-flat as jobs grow (O(degree) \
         unlinks + contested-tail selection), which is what makes 8k–16k-job rows \
         (and the 8192-job hierarchical point) reachable across the thousands of \
         reset-event recomputes of a simulated run."
    );
}

fn median_secs<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}
