//! Property tests: the incremental snapshot is row-for-row identical to a
//! fresh tensor build under arbitrary admit/complete/refine
//! interleavings, whichever pair source backs the cache — the oracle, or
//! a live estimator whose refinements dirty anywhere from one pair up to
//! every resident job — and spends work proportional to the dirty set.
//! One oracle case draws its jobs from two or three configurations, so
//! the cache's configuration classes hold many members each.
//! Snapshots follow a random subset of the ops, so the dirty set a
//! snapshot drains may hold several arrivals and drifts, minus the jobs
//! that left before it.
//!
//! The harness runs with the crosscheck enabled, so every
//! selection pass is additionally asserted bit-identical (same pair set,
//! same emission order) to the flat `rank_and_cap` ranking inside the
//! cache itself.

use gavel_core::{JobId, PolicyJob};
use gavel_sim::{EstimatorBridge, SnapshotCache, SnapshotStats};
use gavel_workloads::{
    build_singleton_tensor, build_tensor_with_pairs, build_tensor_with_pairs_by, pair_row, GpuKind,
    JobConfig, JobSpec, Oracle, PairOptions,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Applies one op sequence to the cache while mirroring it on a plain
/// spec vector, checking snapshot == fresh build after a random subset
/// of the steps and after the last, so that several admissions, removals
/// and refinements can land between two snapshots.
///
/// `estimator_seed` picks the pair source: `None` for the oracle, or the
/// seed of an estimator bridge the cache owns (which needs `opts`).
/// Arrivals draw their configuration from `configs`. `ops` drives the
/// interleaving — `(kind, pick, cfg_idx, extra, snap)`:
///
/// - kinds 0 and 3 admit a new job (the estimator profiles it);
/// - kind 1 completes the resident job at `pick % len` (the estimator
///   forgets it) — exercising `swap_remove` reordering, which is what the
///   pair-candidate ranking has to survive;
/// - kind 2 is an `observe` burst refining 1..=len colocated pairs,
///   dirtying up to every resident job; the oracle never drifts, so
///   there it is a no-op;
/// - a snapshot follows the op when `snap` is 0.
fn run_sequence(
    ops: &[(usize, usize, usize, usize, usize)],
    opts: Option<PairOptions>,
    estimator_seed: Option<u64>,
    configs: &[JobConfig],
) {
    let oracle = Oracle::new();
    let mut cache = match (estimator_seed, opts) {
        (Some(seed), Some(o)) => {
            SnapshotCache::estimated(true, o, EstimatorBridge::new(&oracle, seed))
        }
        _ => SnapshotCache::new(true, opts),
    };
    cache.set_crosscheck(true);
    let mut specs: Vec<JobSpec> = Vec::new();
    let mut next_id = 0u64;
    let mut snapshots = 0usize;
    let mut before = cache.stats();
    // Resident jobs admitted or drifted since the last snapshot: what the
    // next one may score. A job that leaves first is never scored.
    let mut dirty: BTreeSet<JobId> = BTreeSet::new();
    for (step, &(kind, pick, cfg_idx, extra, snap)) in ops.iter().enumerate() {
        match kind % 4 {
            0 | 3 => {
                let spec = JobSpec {
                    id: JobId(next_id),
                    config: configs[cfg_idx % configs.len()],
                    // Mostly single-worker jobs (pairable), some distributed.
                    scale_factor: if extra % 5 == 0 { 2 } else { 1 },
                };
                next_id += 1;
                cache.admit(&oracle, spec, PolicyJob::simple(spec.id, 1000.0));
                specs.push(spec);
                dirty.insert(spec.id);
            }
            1 if !specs.is_empty() => {
                let i = pick % specs.len();
                cache.remove(i);
                dirty.remove(&specs.swap_remove(i).id);
            }
            2 if specs.len() >= 2 && cache.estimator().is_some() => {
                let burst = extra % specs.len() + 1;
                for k in 0..burst {
                    let i = (pick + k) % specs.len();
                    let j = (i + 1) % specs.len();
                    let (x, y) = (specs[i], specs[j]);
                    cache.observe(&oracle, (x.id, x.config), (y.id, y.config), GpuKind::V100);
                    dirty.extend([x.id, y.id]);
                }
            }
            _ => {}
        }
        if snap != 0 && step + 1 < ops.len() {
            continue;
        }
        let (combos, tensor) = cache.snapshot(&oracle);
        let bridge = cache.estimator();
        let pair_fn = |x: &JobSpec, y: &JobSpec, g| match bridge {
            Some(b) => b.pair_throughput(&oracle, (x.id, x.config), (y.id, y.config), g),
            None => oracle.colocated(x.config, y.config, g),
        };
        let (fresh_combos, fresh_tensor) = match (opts, bridge) {
            (None, _) => build_singleton_tensor(&oracle, &specs, true),
            (Some(o), None) => build_tensor_with_pairs(&oracle, &specs, true, &o),
            (Some(o), Some(_)) => build_tensor_with_pairs_by(&oracle, &specs, true, &o, pair_fn),
        };
        assert_eq!(
            combos.combos(),
            fresh_combos.combos(),
            "combo rows diverge at {} jobs",
            specs.len()
        );
        assert_eq!(tensor.num_rows(), fresh_tensor.num_rows());
        for k in 0..tensor.num_rows() {
            assert_eq!(tensor.row(k), fresh_tensor.row(k), "row {k} diverges");
        }

        // Work follows the dirty set: each resident job admitted or
        // drifted since the last snapshot is scored at most once against
        // each resident single-worker job, and the store holds exactly
        // the pairs a fresh enumeration keeps.
        let singles: Vec<&JobSpec> = specs.iter().filter(|s| s.scale_factor == 1).collect();
        let settled = cache.stats();
        assert!(
            settled.pair_evals - before.pair_evals <= dirty.len() * singles.len(),
            "{} evaluations for {} dirty of {} single-worker jobs",
            settled.pair_evals - before.pair_evals,
            dirty.len(),
            singles.len()
        );
        let kept = opts.map_or(0, |o| {
            (singles.iter().enumerate())
                .flat_map(|(i, a)| singles[i + 1..].iter().map(move |b| (a, b)))
                .filter(|(a, b)| pair_row(&oracle, a, b, &pair_fn).0 >= o.min_aggregate)
                .count()
        });
        assert_eq!(cache.candidate_count(), kept);

        // With no drift and no churn a snapshot evaluates nothing and
        // derives no row: with pair rows it is one selection pass over the
        // unchanged store, walking the tie groups the last pass walked,
        // and the assembly.
        let estimated = bridge.is_some();
        let passes = usize::from(opts.is_some());
        cache.snapshot(&oracle);
        snapshots += 2;
        let reselected = SnapshotStats {
            bucketed_selections: settled.bucketed_selections + passes,
            flat_reranks: settled.flat_reranks + passes,
            buckets_walked: 2 * settled.buckets_walked - before.buckets_walked,
            ..settled
        };
        let counted = if estimated {
            SnapshotStats {
                bridged_snapshots: settled.bridged_snapshots + 1,
                ..reselected
            }
        } else {
            SnapshotStats {
                incremental_snapshots: settled.incremental_snapshots + 1,
                ..reselected
            }
        };
        assert_eq!(cache.stats(), counted);
        before = counted;
        dirty.clear();
    }
    let stats = cache.stats();
    let by_source = (stats.incremental_snapshots, stats.bridged_snapshots);
    match cache.estimator() {
        Some(_) => assert_eq!(by_source, (0, snapshots)),
        None => assert_eq!(by_source, (snapshots, 0)),
    }
    // Crosschecking runs the flat oracle once per selection pass.
    assert_eq!(stats.flat_reranks, stats.bucketed_selections);
}

fn ops(max_len: usize) -> impl Strategy<Value = Vec<(usize, usize, usize, usize, usize)>> {
    prop::collection::vec(
        (0usize..4, 0usize..64, 0usize..64, 0usize..16, 0usize..3),
        1..max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn incremental_equals_fresh_with_pairs(
        ops in ops(40),
        min_aggregate in 1.0f64..1.6,
        max_pairs in 1usize..6,
    ) {
        run_sequence(
            &ops,
            Some(PairOptions { min_aggregate, max_pairs_per_job: max_pairs }),
            None,
            &JobConfig::all(),
        );
    }

    #[test]
    fn incremental_equals_fresh_singletons(ops in ops(40)) {
        run_sequence(&ops, None, None, &JobConfig::all());
    }

    #[test]
    fn bridged_equals_fresh_under_drift(
        ops in ops(30),
        min_aggregate in 1.0f64..1.5,
        max_pairs in 1usize..6,
        seed in 0u64..1024,
    ) {
        run_sequence(
            &ops,
            Some(PairOptions { min_aggregate, max_pairs_per_job: max_pairs }),
            Some(seed),
            &JobConfig::all(),
        );
    }

    /// Many jobs of few configurations: each class holds many members,
    /// whose positions keep moving under heavy removal churn, so tie
    /// groups of one class pair enumerate many job pairs.
    #[test]
    fn incremental_equals_fresh_with_few_configurations(
        ops in ops(80),
        palette in (0usize..26, 0usize..26, 0usize..26, 2usize..4),
        min_aggregate in 1.0f64..1.3,
        max_pairs in 1usize..7,
    ) {
        let all = JobConfig::all();
        let (a, b, c, count) = palette;
        let configs = [all[a], all[b], all[c]];
        // Kinds 0–1 admit, 2–3 remove.
        let churn: Vec<_> = (ops.iter())
            .map(|&(kind, pick, cfg, extra, snap)| (kind / 2, pick, cfg, extra, snap))
            .collect();
        run_sequence(
            &churn,
            Some(PairOptions { min_aggregate, max_pairs_per_job: max_pairs }),
            None,
            &configs[..count],
        );
    }
}
