//! Figure 12: how the scheduler's cost grows with the number of active
//! jobs. The cluster grows with the job count, as in the paper, and every
//! layer a recompute and a round pass through is measured on the same
//! input at each count:
//!
//! - the policy: one solve each of LAS and hierarchical (4 entities), with
//!   and without space sharing, timed, with the solver's pivots;
//! - the snapshot cache: populating it with every job, a fresh
//!   `build_tensor_with_pairs` of the same rows, a snapshot of an
//!   unchanged job set, and one churn step (a completion, an arrival and
//!   a snapshot);
//! - the estimator-backed snapshot cache (Figure 14's pair source):
//!   populating it, a fresh estimator-driven build of the same rows, and
//!   one drift step (two observed pairs and a snapshot);
//! - the round planner: resolving the LAS-with-space-sharing allocation
//!   into candidates and planning its first round, then one steady round
//!   (plan and record).
//!
//! It panics at any size where:
//!
//! - a cached snapshot, oracle or estimator-backed, differs from the fresh
//!   build row for row;
//! - populating the estimator-backed cache scores other than n(n−1)/2
//!   pairs, or a drift step scores more than 4n;
//! - a bucketed pair selection differs from the flat ranking, checked on
//!   a copy of the cache over three churn steps (and, past the default
//!   and full sweeps, at 4096 jobs), or the timed cache ran the flat
//!   ranking at all;
//! - the oracle-backed cache holds more than K(K+1)/2 class-pair
//!   candidates, K being the distinct single-worker configurations
//!   resident (the table prints them beside the job-pair candidates they
//!   stand for);
//! - a LAS solve without pair rows leaves its structural bases, or a
//!   hierarchical solve runs a phase 1 or falls back from its warm start;
//! - from 1024 jobs, a cached snapshot or churn step is not 3 times
//!   faster than the fresh build, or a drift step 2 times faster than the
//!   estimator-driven one.
//!
//! Note on scale: the paper's cvxpy/ECOS stack reaches 2048 jobs in ~8.5
//! minutes for hierarchical w/ SS. The default sweep stops at 1024 jobs,
//! the first size the speed gates apply to, and `--full` extends it to the
//! paper's 2048-job point. Policy solves and fresh builds are one sample
//! each; the snapshot, churn, drift and planner steps are medians of five
//! runs.
//!
//! Run: `cargo run --release -p gavel-experiments --bin gavel-exp -- fig12_scalability`

use crate::{print_table, Scale};
use gavel_core::{
    Allocation, ComboSet, JobId, PolicyError, PolicyInput, PolicyJob, ThroughputTensor,
};
use gavel_policies::{EntityPolicy, Hierarchical, MaxMinFairness};
use gavel_sched::RoundScheduler;
use gavel_sim::{EstimatorBridge, SnapshotCache};
use gavel_solver::SolveStats;
use gavel_workloads::{
    build_singleton_tensor, build_tensor_with_pairs, build_tensor_with_pairs_by, cluster_scaled,
    generate, GpuKind, JobConfig, JobSpec, Oracle, PairOptions, TraceConfig,
};
use std::collections::HashMap;
use std::time::Instant;

/// Runs per median for the snapshot, churn, drift and planner steps.
const REPS: usize = 5;

/// Job count from which the cached paths must beat their rebuilds.
const GATE_JOBS: usize = 1024;

/// How many times faster than a fresh build a cached snapshot and a churn
/// step must be from [`GATE_JOBS`] jobs.
const CACHED_EDGE: f64 = 3.0;

/// How many times faster than an estimator-driven fresh build a drift
/// step must be from [`GATE_JOBS`] jobs.
const ESTIMATED_EDGE: f64 = 2.0;

/// Jobs in the bucketed-selection check run after the default and full
/// sweeps.
const BUCKETED_JOBS: usize = 4096;

/// Runs `f` once; returns its value and the seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Median seconds of [`REPS`] runs of `f`.
fn median_secs(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..REPS).map(|_| timed(&mut f).1).collect();
    samples.sort_by(f64::total_cmp);
    samples[REPS / 2]
}

/// Asserts that a cached snapshot equals a fresh build row for row.
fn assert_same(
    what: &str,
    n: usize,
    (combos, tensor): &(ComboSet, ThroughputTensor),
    (fresh_combos, fresh_tensor): &(ComboSet, ThroughputTensor),
) {
    assert_eq!(
        combos.combos(),
        fresh_combos.combos(),
        "{what} diverges at {n} jobs"
    );
    for k in 0..tensor.num_rows() {
        assert_eq!(
            tensor.row(k),
            fresh_tensor.row(k),
            "{what}: row {k} diverges at {n} jobs"
        );
    }
}

/// From [`GATE_JOBS`] jobs, asserts that a cached step is at least `edge`
/// times faster than the rebuild it saves.
fn assert_edge(what: &str, n: usize, cached: f64, rebuilt: f64, edge: f64) {
    assert!(
        n < GATE_JOBS || rebuilt >= edge * cached,
        "{what} must beat a fresh build {edge}x at {n} jobs: \
         {cached:.5} s against {rebuilt:.5} s ({:.1}x)",
        rebuilt / cached
    );
}

/// The single-worker job with id `i`, its configuration taken in turn.
fn spec(i: usize) -> JobSpec {
    let configs = JobConfig::all();
    JobSpec {
        id: JobId(i as u64),
        config: configs[i % configs.len()],
        scale_factor: 1,
    }
}

/// One churn step: the first resident completes, job `*next` arrives, and
/// the cache takes a snapshot.
fn churn(cache: &mut SnapshotCache, oracle: &Oracle, next: &mut usize) {
    cache.remove(0);
    let arrival = spec(*next);
    *next += 1;
    cache.admit(oracle, arrival, PolicyJob::simple(arrival.id, 1_000.0));
    cache.snapshot(oracle);
}

/// Runs three churn steps on a copy of `cache` that re-ranks every
/// bucketed selection with the fresh builder's flat ranking and asserts
/// the two equal (inside `snapshot`).
fn assert_bucketed_is_flat(cache: &SnapshotCache, oracle: &Oracle, mut next: usize) {
    let mut copy = cache.clone();
    copy.set_crosscheck(true);
    for _ in 0..3 {
        churn(&mut copy, oracle, &mut next);
    }
    let checked = copy.stats().flat_reranks - cache.stats().flat_reranks;
    assert_eq!(checked, 3, "selections checked at {} jobs", copy.len());
}

/// Asserts that the oracle-backed `cache` holds at most K(K+1)/2 class
/// pairs, K being the distinct single-worker configurations resident;
/// returns its class pairs and job-level candidates.
fn assert_class_pairs(cache: &SnapshotCache) -> (usize, usize) {
    let mut configs: Vec<JobConfig> = (cache.specs().iter())
        .filter(|s| s.scale_factor == 1)
        .map(|s| s.config)
        .collect();
    configs.sort_by_key(|c| (c.family, c.batch_size));
    configs.dedup();
    let k = configs.len();
    let class_pairs = cache.class_pair_count();
    assert!(
        class_pairs <= k * (k + 1) / 2,
        "{class_pairs} class pairs for {k} configurations at {} jobs",
        cache.len()
    );
    (class_pairs, cache.candidate_count())
}

/// Asserts that a solve started every LP from its hint: no phase-1 pivot,
/// no warm fallback, and at least `hits` warm hits.
fn assert_warm(what: &str, n: usize, stats: &SolveStats, hits: usize) {
    assert!(
        stats.pivots_phase1 == 0 && stats.warm_falls_back == 0 && stats.warm_hits >= hits,
        "{what} started cold at {n} jobs: {stats:?}"
    );
}

pub fn run(scale: Scale) {
    let sizes: Vec<usize> = match scale {
        Scale::Smoke => vec![4, 8],
        Scale::Quick => vec![32, 64],
        Scale::Standard => vec![32, 64, 128, 256, 512, 1024],
        Scale::Full => vec![32, 64, 128, 256, 512, 1024, 2048],
    };
    let oracle = Oracle::new();
    let pair_opts = PairOptions {
        min_aggregate: 1.3,
        max_pairs_per_job: 4,
    };
    let ms = |s: f64| format!("{:.3}", s * 1e3);

    let (mut solve_rows, mut work_rows) = (Vec::new(), Vec::new());
    let (mut layer_rows, mut estimated_rows) = (Vec::new(), Vec::new());
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
        // Hierarchical: 4 entities, round-robin.
        let jobs: Vec<PolicyJob> = (trace.iter().enumerate())
            .map(|(i, t)| PolicyJob {
                entity: Some(i % 4),
                ..PolicyJob::simple(t.id, t.total_steps)
            })
            .collect();
        let cluster = cluster_scaled((n / 3).max(2));

        let mut cache = SnapshotCache::new(true, Some(pair_opts));
        cache.set_crosscheck(false);
        let (snapshot_ss, populate) = timed(|| {
            for (&spec, job) in specs.iter().zip(&jobs) {
                cache.admit(&oracle, spec, job.clone());
            }
            cache.snapshot(&oracle)
        });
        let (fresh_ss, fresh) =
            timed(|| build_tensor_with_pairs(&oracle, &specs, true, &pair_opts));
        assert_same("the cached snapshot", n, &snapshot_ss, &fresh_ss);
        let snapshot = median_secs(|| {
            cache.snapshot(&oracle);
        });
        assert_edge("a cached snapshot", n, snapshot, fresh, CACHED_EDGE);

        let (combos_ss, tensor_ss) = &snapshot_ss;
        let (combos_plain, tensor_plain) = build_singleton_tensor(&oracle, &specs, true);
        let input = |ss: bool| PolicyInput {
            jobs: &jobs,
            combos: if ss { combos_ss } else { &combos_plain },
            tensor: if ss { tensor_ss } else { &tensor_plain },
            cluster: &cluster,
        };
        type Solved = Result<(Allocation, SolveStats), PolicyError>;
        let solved = |what: &str, (out, secs): (Solved, f64)| {
            let (alloc, stats) = out.unwrap_or_else(|e| panic!("{what} failed at n={n}: {e}"));
            (alloc, stats, secs)
        };
        let solve_las = |ss: bool| {
            let las = MaxMinFairness::new();
            solved(
                "LAS",
                timed(|| las.compute_allocation_with_stats(&input(ss))),
            )
        };
        let hier = Hierarchical::new(vec![1.0; 4], EntityPolicy::Fairness);
        let solve_hier = |ss: bool| {
            let out = solved(
                "hierarchical",
                timed(|| hier.compute_allocation_with_stats(&input(ss))),
            );
            assert_warm("hierarchical water filling", n, &out.1, 1);
            out
        };
        let las = solve_las(false);
        // Both max-min solves are warm hits from the structural bases.
        assert_warm("LAS", n, &las.1, 2);
        let las_ss = solve_las(true);
        let hier_t = solve_hier(false);
        let hier_ss = solve_hier(true);

        // The round planner on the LAS-with-space-sharing allocation.
        let sf: HashMap<JobId, u32> = specs.iter().map(|s| (s.id, 1)).collect();
        let mut sched = RoundScheduler::new(cluster.clone());
        let (first, resolve) = timed(|| sched.plan_round_cached(&las_ss.0, 1, &sf, None));
        sched.record(&first, 360.0);
        let round = median_secs(|| {
            let plan = sched.plan_round_cached(&las_ss.0, 1, &sf, None);
            sched.record(&plan, 360.0);
        });

        // Churn: a resident completes and a job of the next configuration
        // in turn arrives before each snapshot. The copy checked against
        // the flat ranking churns ahead of the timed cache.
        let mut next = n;
        assert_bucketed_is_flat(&cache, &oracle, next);
        let churn_step = median_secs(|| churn(&mut cache, &oracle, &mut next));
        assert_edge("a churn step", n, churn_step, fresh, CACHED_EDGE);
        let stats = cache.stats();
        assert!(stats.bucketed_selections > 0 && stats.flat_reranks == 0);
        let (class_pairs, candidates) = assert_class_pairs(&cache);

        // The estimator-backed cache on the same jobs: each drift step
        // observes two colocated pairs, dirtying at most four jobs.
        let mut estimated =
            SnapshotCache::estimated(true, pair_opts, EstimatorBridge::new(&oracle, 17));
        estimated.set_crosscheck(false);
        let ((), estimated_populate) = timed(|| {
            for (&spec, job) in specs.iter().zip(&jobs) {
                estimated.admit(&oracle, spec, job.clone());
            }
            estimated.snapshot(&oracle);
        });
        let evals = estimated.stats().pair_evals;
        assert_eq!(evals, n * (n - 1) / 2, "pairs scored populating {n} jobs");
        let mut turn = 0;
        let mut drift = |cache: &mut SnapshotCache| {
            for _ in 0..2 {
                let (a, b) = (specs[turn % (n - 1)], specs[turn % (n - 1) + 1]);
                cache.observe(&oracle, (a.id, a.config), (b.id, b.config), GpuKind::V100);
                turn += 7;
            }
        };
        drift(&mut estimated);
        let estimated_ss = estimated.snapshot(&oracle);
        let bridge = estimated.estimator().expect("an estimator-backed cache");
        let (fresh_estimated, estimated_fresh) = timed(|| {
            build_tensor_with_pairs_by(&oracle, &specs, true, &pair_opts, |x, y, g| {
                bridge.pair_throughput(&oracle, (x.id, x.config), (y.id, y.config), g)
            })
        });
        assert_same("the estimated snapshot", n, &estimated_ss, &fresh_estimated);
        let before = estimated.stats();
        let drift_step = median_secs(|| {
            drift(&mut estimated);
            estimated.snapshot(&oracle);
        });
        let after = estimated.stats();
        assert!(
            after.pair_evals - before.pair_evals <= 4 * n * REPS,
            "{} pairs scored over {REPS} drift steps at {n} jobs",
            after.pair_evals - before.pair_evals
        );
        let what = "an estimated drift step";
        assert_edge(what, n, drift_step, estimated_fresh, ESTIMATED_EDGE);

        let secs = |t: f64| format!("{t:.3}");
        let pivots = |s: &SolveStats| s.total_pivots().to_string();
        solve_rows.push(vec![
            n.to_string(),
            secs(las.2),
            secs(las_ss.2),
            secs(hier_t.2),
            secs(hier_ss.2),
        ]);
        work_rows.push(vec![
            n.to_string(),
            pivots(&las.1),
            pivots(&las_ss.1),
            pivots(&hier_t.1),
            pivots(&hier_ss.1),
        ]);
        layer_rows.push(vec![
            n.to_string(),
            class_pairs.to_string(),
            candidates.to_string(),
            (combos_ss.len() - n).to_string(),
            ms(populate),
            ms(fresh),
            ms(snapshot),
            ms(churn_step),
            ms(resolve),
            ms(round),
        ]);
        estimated_rows.push(vec![
            n.to_string(),
            (estimated_ss.0.len() - n).to_string(),
            ms(estimated_populate),
            ms(estimated_fresh),
            ms(drift_step),
        ]);
    }
    let policies = [
        "jobs",
        "LAS",
        "LAS w/ SS",
        "Hierarchical",
        "Hierarchical w/ SS",
    ];
    print_table(
        "Figure 12: policy solve time (seconds) vs number of jobs",
        &policies,
        &solve_rows,
    );
    print_table("Figure 12: solver pivots per solve", &policies, &work_rows);
    print_table(
        "Figure 12: snapshot cache and round planner (milliseconds)",
        &[
            "jobs",
            "class pairs",
            "candidates",
            "pair rows",
            "populate",
            "fresh build",
            "snapshot",
            "churn step",
            "resolve+plan",
            "round",
        ],
        &layer_rows,
    );
    print_table(
        "Figure 12: estimator-backed snapshot cache (milliseconds)",
        &["jobs", "pair rows", "populate", "fresh build", "drift step"],
        &estimated_rows,
    );
    if matches!(scale, Scale::Standard | Scale::Full) {
        let mut cache = SnapshotCache::new(true, Some(pair_opts));
        let ((), secs) = timed(|| {
            for s in (0..BUCKETED_JOBS).map(spec) {
                cache.admit(&oracle, s, PolicyJob::simple(s.id, 1_000.0));
            }
            cache.snapshot(&oracle);
            assert_bucketed_is_flat(&cache, &oracle, BUCKETED_JOBS);
        });
        let (class_pairs, candidates) = assert_class_pairs(&cache);
        println!(
            "\nBucketed selection at {BUCKETED_JOBS} jobs: three churn steps equal the \
             flat ranking ({secs:.1} s with populating); {class_pairs} class pairs stand \
             for {candidates} job-pair candidates."
        );
    }
    println!(
        "\nShape check (paper): hierarchical is costlier than LAS (here it need \
         not be: water filling solves one warm LP per round); space sharing \
         grows the problem superlinearly; even large instances stay within the \
         sub-10-minute budget the paper deems acceptable."
    );
}
