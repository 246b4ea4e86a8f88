//! Builders turning oracle throughputs into core tensors.
//!
//! Policies consume a [`ComboSet`] plus a parallel [`ThroughputTensor`].
//! These builders construct both: singleton rows for every job, and — for
//! space-sharing-aware policies — pair rows for combinations that "actually
//! perform well" (§3.1), pruned by an aggregate-throughput threshold and a
//! per-job cap to keep the optimization problems tractable.

use crate::clusters::GpuKind;
use crate::models::JobConfig;
use crate::oracle::Oracle;
use gavel_core::{Combo, ComboSet, JobId, PairThroughput, ThroughputTensor};

/// Minimal job description the builders need.
#[derive(Debug, Clone, Copy)]
pub struct JobSpec {
    /// Job identity.
    pub id: JobId,
    /// Model configuration.
    pub config: JobConfig,
    /// Worker count.
    pub scale_factor: u32,
}

/// Options for pair enumeration in [`build_tensor_with_pairs`].
#[derive(Debug, Clone, Copy)]
pub struct PairOptions {
    /// Keep a pair only if, on its best type, the sum of the two jobs'
    /// colocation-normalized throughputs reaches this value (1.0 = no
    /// better than time sharing).
    pub min_aggregate: f64,
    /// At most this many pair rows per job (highest aggregate first).
    pub max_pairs_per_job: usize,
}

impl Default for PairOptions {
    fn default() -> Self {
        PairOptions {
            min_aggregate: 1.15,
            max_pairs_per_job: 8,
        }
    }
}

/// Builds singleton-only rows for `jobs`.
///
/// `consolidated` selects the placement assumption for distributed jobs
/// (policies use the consolidated upper bound by default; the simulator
/// applies the unconsolidated penalty when placement fails to consolidate).
pub fn build_singleton_tensor(
    oracle: &Oracle,
    jobs: &[JobSpec],
    consolidated: bool,
) -> (ComboSet, ThroughputTensor) {
    let combos = ComboSet::singletons(&jobs.iter().map(|j| j.id).collect::<Vec<_>>());
    let entries = jobs
        .iter()
        .flat_map(|j| singleton_row(oracle, j, consolidated))
        .collect();
    (combos, ThroughputTensor::from_flat(GpuKind::COUNT, entries))
}

/// Builds singleton rows plus pruned space-sharing pair rows.
///
/// Pairs are only formed between single-worker jobs (distributed space
/// sharing rarely pays off and complicates placement). Rows are ordered:
/// all singletons first (parallel to `jobs`), then pairs.
pub fn build_tensor_with_pairs(
    oracle: &Oracle,
    jobs: &[JobSpec],
    consolidated: bool,
    opts: &PairOptions,
) -> (ComboSet, ThroughputTensor) {
    build_tensor_with_pairs_by(oracle, jobs, consolidated, opts, |a, b, g| {
        oracle.colocated(a.config, b.config, g)
    })
}

/// Like [`build_tensor_with_pairs`] but with pair throughputs supplied by
/// `pair_fn` — used to plug in *estimated* colocated throughputs (the
/// Figure 14 experiment) while singleton rows still come from the oracle.
///
/// `pair_fn(a, b, gpu)` returns the colocated `(throughput_a,
/// throughput_b)` or `None` when infeasible; `a` and `b` arrive in
/// canonical (`JobId`-sorted) order. The pruning score still normalizes by
/// the oracle's isolated rates.
pub fn build_tensor_with_pairs_by(
    oracle: &Oracle,
    jobs: &[JobSpec],
    consolidated: bool,
    opts: &PairOptions,
    pair_fn: impl Fn(&JobSpec, &JobSpec, GpuKind) -> Option<(f64, f64)>,
) -> (ComboSet, ThroughputTensor) {
    let mut combos: Vec<Combo> = jobs.iter().map(|j| Combo::single(j.id)).collect();
    let mut entries: Vec<PairThroughput> = jobs
        .iter()
        .flat_map(|j| singleton_row(oracle, j, consolidated))
        .collect();

    // Score all candidate pairs.
    let mut candidates: Vec<(u32, u32, f64, [PairThroughput; GpuKind::COUNT])> = Vec::new();
    for i in 0..jobs.len() {
        if jobs[i].scale_factor != 1 {
            continue;
        }
        for k in i + 1..jobs.len() {
            if jobs[k].scale_factor != 1 {
                continue;
            }
            let (score, row) = pair_row(oracle, &jobs[i], &jobs[k], &pair_fn);
            if score >= opts.min_aggregate {
                candidates.push((i as u32, k as u32, score, row));
            }
        }
    }
    let ranked = (candidates.iter().enumerate()).map(|(c, &(i, k, score, _))| (i, k, score, c));
    for c in rank_and_cap(ranked, jobs.len(), opts.max_pairs_per_job) {
        let (i, k, _, row) = &candidates[c];
        combos.push(Combo::pair(jobs[*i as usize].id, jobs[*k as usize].id));
        entries.extend_from_slice(row);
    }

    (
        ComboSet::new(combos),
        ThroughputTensor::from_flat(GpuKind::COUNT, entries),
    )
}

/// Ranks scored pair candidates and applies the greedy per-job cap,
/// returning each surviving candidate's `tag` in emission order: the flat
/// ranking behind [`build_tensor_with_pairs_by`], and the oracle the
/// simulator's score-bucketed `SnapshotCache` selection is crosschecked
/// against.
///
/// A candidate is `(position_a, position_b, score, tag)`, where the
/// positions index the current job vector (`n_jobs` long). The order is
/// score descending, then the (lower, higher) position pair ascending —
/// the order a stable score sort of the (i, k) enumeration produces —
/// packed into one `u128` key per candidate and sorted ascending:
///
/// ```text
/// key = (!score.to_bits()) << 64 | i << 32 | k,   i < k
/// ```
///
/// Scores must be nonnegative and finite: `!score.to_bits()` orders the
/// IEEE bit patterns inverse to the values only on that domain, and
/// silently mis-orders negatives and NaNs (debug-asserted here).
pub fn rank_and_cap<T: Copy>(
    candidates: impl Iterator<Item = (u32, u32, f64, T)>,
    n_jobs: usize,
    max_pairs_per_job: usize,
) -> Vec<T> {
    let mut keys: Vec<(u128, T)> = candidates
        .map(|(pa, pb, score, tag)| {
            let (i, k) = if pa < pb { (pa, pb) } else { (pb, pa) };
            debug_assert!(
                score >= 0.0 && score.is_finite(),
                "rank_and_cap requires nonnegative finite scores \
                 (the score_desc bit trick mis-orders negatives/NaNs), got {score}"
            );
            let score_desc = !score.to_bits();
            let key = ((score_desc as u128) << 64) | ((i as u128) << 32) | (k as u128);
            (key, tag)
        })
        .collect();
    keys.sort_unstable_by_key(|&(key, _)| key);
    let mut per_job_count = vec![0usize; n_jobs];
    let mut selected = Vec::new();
    for &(key, tag) in &keys {
        let i = ((key >> 32) & 0xffff_ffff) as usize;
        let k = (key & 0xffff_ffff) as usize;
        if per_job_count[i] >= max_pairs_per_job || per_job_count[k] >= max_pairs_per_job {
            continue;
        }
        per_job_count[i] += 1;
        per_job_count[k] += 1;
        selected.push(tag);
    }
    selected
}

/// The throughput row of a single job across all accelerator types —
/// the unit the simulator's incremental `SnapshotCache` computes once at
/// admission and reuses for every later recompute.
pub fn singleton_row(
    oracle: &Oracle,
    j: &JobSpec,
    consolidated: bool,
) -> [PairThroughput; GpuKind::COUNT] {
    std::array::from_fn(|g| {
        let g = GpuKind::all()[g];
        PairThroughput::single(oracle.throughput(j.config, g, j.scale_factor, consolidated))
    })
}

/// The pruning score of a pair — the best-type sum of
/// colocation-normalized throughputs — and its throughput row, exactly as
/// [`build_tensor_with_pairs_by`] computes them for the same pair and the
/// same `pair_fn` state. The simulator's incremental `SnapshotCache` takes
/// the score once per (arriving or drifted job, resident job) pair and
/// the row only for the pairs a selection just picked.
pub fn pair_row(
    oracle: &Oracle,
    a: &JobSpec,
    b: &JobSpec,
    pair_fn: &impl Fn(&JobSpec, &JobSpec, GpuKind) -> Option<(f64, f64)>,
) -> (f64, [PairThroughput; GpuKind::COUNT]) {
    let mut best = 0.0f64;
    let mut row = [PairThroughput::zero(); GpuKind::COUNT];
    // Canonical order: Combo::pair sorts by JobId, so align throughputs.
    let (first, second) = if a.id < b.id { (a, b) } else { (b, a) };
    for (cell, &g) in row.iter_mut().zip(GpuKind::all()) {
        if let Some((ta, tb)) = pair_fn(first, second, g) {
            let ia = oracle.isolated(first.config, g);
            let ib = oracle.isolated(second.config, g);
            if ia > 0.0 && ib > 0.0 {
                best = best.max(ta / ia + tb / ib);
            }
            *cell = PairThroughput::pair(ta, tb);
        }
    }
    (best, row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelFamily as MF;

    fn spec(id: u64, family: MF, batch: u32) -> JobSpec {
        JobSpec {
            id: JobId(id),
            config: JobConfig::new(family, batch),
            scale_factor: 1,
        }
    }

    #[test]
    fn singleton_tensor_shape() {
        let o = Oracle::new();
        let jobs = [spec(0, MF::ResNet50, 32), spec(1, MF::A3C, 4)];
        let (combos, tensor) = build_singleton_tensor(&o, &jobs, true);
        assert_eq!(combos.len(), 2);
        assert_eq!(tensor.num_rows(), 2);
        assert_eq!(tensor.num_types(), 3);
        assert!(tensor.entry(0, GpuKind::V100.index()).a > 0.0);
    }

    #[test]
    fn pairs_are_pruned_by_threshold() {
        let o = Oracle::new();
        // Two light jobs pair well; two heavy jobs do not.
        let jobs = [
            spec(0, MF::A3C, 4),
            spec(1, MF::ResNet18, 16),
            spec(2, MF::CycleGan, 1),
            spec(3, MF::ResNet50, 128),
        ];
        let opts = PairOptions {
            min_aggregate: 1.5,
            max_pairs_per_job: 8,
        };
        let (combos, _) = build_tensor_with_pairs(&o, &jobs, true, &opts);
        let pairs: Vec<_> = combos.combos().iter().filter(|c| c.is_pair()).collect();
        assert!(
            pairs
                .iter()
                .any(|c| c.contains(JobId(0)) && c.contains(JobId(1))),
            "light pair should survive: {pairs:?}"
        );
        assert!(
            !pairs
                .iter()
                .any(|c| c.contains(JobId(2)) && c.contains(JobId(3))),
            "heavy pair should be pruned: {pairs:?}"
        );
    }

    /// A NaN colocated throughput scores nothing (`f64::max` skips it),
    /// so its pair is pruned; the pairs that survive are ranked without
    /// panicking.
    #[test]
    fn nan_pair_throughputs_do_not_panic() {
        let o = Oracle::new();
        let jobs = [
            spec(0, MF::A3C, 4),
            spec(1, MF::ResNet18, 16),
            spec(2, MF::CycleGan, 1),
        ];
        let opts = PairOptions {
            min_aggregate: 0.1,
            max_pairs_per_job: 8,
        };
        let (combos, _) = build_tensor_with_pairs_by(&o, &jobs, true, &opts, |a, _, g| {
            let t = o.isolated(a.config, g);
            Some(if a.id == JobId(0) {
                (f64::NAN, t)
            } else {
                (t, t)
            })
        });
        let pairs: Vec<_> = combos.combos().iter().filter(|c| c.is_pair()).collect();
        assert_eq!(pairs.len(), 1, "{pairs:?}");
        assert!(!pairs[0].contains(JobId(0)));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "nonnegative finite")]
    fn rank_and_cap_rejects_negative_scores() {
        // A negative score would silently sort *above* every positive one
        // under the bit complement; the debug assertion must catch it.
        rank_and_cap(std::iter::once((0, 1, -1.0f64, 0usize)), 2, 8);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "nonnegative finite")]
    fn rank_and_cap_rejects_nan_scores() {
        rank_and_cap(std::iter::once((0, 1, f64::NAN, 0usize)), 2, 8);
    }

    #[test]
    fn per_job_pair_cap_respected() {
        let o = Oracle::new();
        let jobs: Vec<JobSpec> = (0..12).map(|i| spec(i, MF::A3C, 4)).collect();
        let opts = PairOptions {
            min_aggregate: 1.0,
            max_pairs_per_job: 3,
        };
        let (combos, _) = build_tensor_with_pairs(&o, &jobs, true, &opts);
        for j in 0..12u64 {
            let count = combos
                .combos()
                .iter()
                .filter(|c| c.is_pair() && c.contains(JobId(j)))
                .count();
            assert!(count <= 3, "job {j} appears in {count} pairs");
        }
    }

    /// What the snapshot cache's configuration classes rest on: under the
    /// oracle a pair's score does not depend on which job holds the lower
    /// id, bit for bit, and its row only swaps cells.
    #[test]
    fn pair_rows_depend_on_id_order_only_by_swapping_cells() {
        let o = Oracle::new();
        let colocated = |x: &JobSpec, y: &JobSpec, g| o.colocated(x.config, y.config, g);
        let at = |id: u64, config: JobConfig| JobSpec {
            id: JobId(id),
            config,
            scale_factor: 1,
        };
        let all = JobConfig::all();
        for &ca in &all {
            for &cb in &all {
                let (score, row) = pair_row(&o, &at(0, ca), &at(1, cb), &colocated);
                let (swapped_score, swapped) = pair_row(&o, &at(1, ca), &at(0, cb), &colocated);
                assert_eq!(score.to_bits(), swapped_score.to_bits(), "{ca} with {cb}");
                for (cell, other) in row.iter().zip(&swapped) {
                    assert_eq!(
                        (cell.a.to_bits(), cell.b.to_bits()),
                        (other.b.to_bits(), other.a.to_bits()),
                        "{ca} with {cb}"
                    );
                }
            }
        }
    }

    #[test]
    fn distributed_jobs_never_pair() {
        let o = Oracle::new();
        let mut a = spec(0, MF::ResNet18, 16);
        a.scale_factor = 4;
        let b = spec(1, MF::A3C, 4);
        let (combos, _) = build_tensor_with_pairs(&o, &[a, b], true, &PairOptions::default());
        assert!(combos.combos().iter().all(|c| !c.is_pair()));
    }

    #[test]
    fn pair_rows_align_with_canonical_combo_order() {
        let o = Oracle::new();
        // Deliberately pass jobs in reverse id order.
        let jobs = [spec(5, MF::A3C, 4), spec(2, MF::ResNet18, 16)];
        let (combos, tensor) = build_tensor_with_pairs(
            &o,
            &jobs,
            true,
            &PairOptions {
                min_aggregate: 1.0,
                max_pairs_per_job: 8,
            },
        );
        let pair_row = combos
            .combos()
            .iter()
            .position(|c| c.is_pair())
            .expect("pair expected");
        let combo = combos.combos()[pair_row];
        assert_eq!(combo.a, JobId(2));
        // The `a` slot of the entry must be ResNet-18's (job 2's) rate.
        let v100 = tensor.entry(pair_row, GpuKind::V100.index());
        let (t_r18, _t_a3c) = o
            .colocated(
                JobConfig::new(MF::ResNet18, 16),
                JobConfig::new(MF::A3C, 4),
                GpuKind::V100,
            )
            .unwrap();
        assert!((v100.a - t_r18).abs() < 1e-9);
    }
}
