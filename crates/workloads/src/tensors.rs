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
    let mut candidates: Vec<(f64, usize, usize, [PairThroughput; GpuKind::COUNT])> = Vec::new();
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
                candidates.push((score, i, k, row));
            }
        }
    }
    candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());

    let mut per_job_count = vec![0usize; jobs.len()];
    for (_, i, k, row) in candidates {
        if per_job_count[i] >= opts.max_pairs_per_job || per_job_count[k] >= opts.max_pairs_per_job
        {
            continue;
        }
        per_job_count[i] += 1;
        per_job_count[k] += 1;
        combos.push(Combo::pair(jobs[i].id, jobs[k].id));
        entries.extend_from_slice(&row);
    }

    (
        ComboSet::new(combos),
        ThroughputTensor::from_flat(GpuKind::COUNT, entries),
    )
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
/// colocation-normalized throughputs — without materializing its row:
/// the unit the simulator's incremental `SnapshotCache` evaluates once
/// per (arriving or drifted job, resident job) pair instead of re-running
/// the full O(n²) enumeration per recompute. `pair_fn` supplies the
/// colocated throughputs as in [`build_tensor_with_pairs_by`]. Performs
/// the same floating-point operations in the same accelerator order as
/// [`pair_row`], so the result is bitwise identical to
/// `pair_row(oracle, a, b, pair_fn).0`.
pub fn pair_score(
    oracle: &Oracle,
    a: &JobSpec,
    b: &JobSpec,
    pair_fn: &impl Fn(&JobSpec, &JobSpec, GpuKind) -> Option<(f64, f64)>,
) -> f64 {
    let mut best = 0.0f64;
    let (first, second) = if a.id < b.id { (a, b) } else { (b, a) };
    for &g in GpuKind::all() {
        if let Some((ta, tb)) = pair_fn(first, second, g) {
            let ia = oracle.isolated(first.config, g);
            let ib = oracle.isolated(second.config, g);
            if ia > 0.0 && ib > 0.0 {
                best = best.max(ta / ia + tb / ib);
            }
        }
    }
    best
}

/// The pruning score of a pair and its throughput row, exactly as
/// [`build_tensor_with_pairs_by`] computes them for the same pair and the
/// same `pair_fn` state — `SnapshotCache` calls this only for the pairs a
/// selection just picked.
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
