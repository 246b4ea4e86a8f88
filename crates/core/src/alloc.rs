//! The allocation matrix `X` and its validity constraints.

use crate::cluster::{AccelIdx, ClusterSpec};
use crate::combo::ComboSet;
use crate::tensor::ThroughputTensor;
use crate::{JobId, EPSILON};
use std::collections::HashMap;

/// An allocation matrix: entry `(k, j)` is the fraction of wall-clock time
/// combo row `k` should spend on accelerator type `j` (§3.1 of the paper).
#[derive(Debug, Clone)]
pub struct Allocation {
    combos: ComboSet,
    num_types: usize,
    /// Row-major: `num_types` values per combo row.
    values: Vec<f64>,
}

/// Slack [`Allocation::validate`] grants a type's scale-factor-weighted
/// usage above its worker count.
pub const CAPACITY_TOLERANCE: f64 = EPSILON * 100.0;

/// Violation of the allocation constraints of §3.1.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidityError {
    /// An entry is outside `[0, 1]` (beyond tolerance).
    EntryOutOfRange {
        /// Combo row index.
        row: usize,
        /// Accelerator type.
        accel: usize,
        /// The offending value.
        value: f64,
    },
    /// A job's total allocation across its combos exceeds 1.
    JobOversubscribed {
        /// The oversubscribed job.
        job: JobId,
        /// Its summed allocation.
        total: f64,
    },
    /// An accelerator type is allocated beyond its worker count.
    WorkerOversubscribed {
        /// The oversubscribed type.
        accel: usize,
        /// Total scale-factor-weighted allocation.
        total: f64,
        /// Available workers.
        capacity: f64,
    },
    /// Matrix shape does not match the combo set.
    ShapeMismatch,
}

impl std::fmt::Display for ValidityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidityError::EntryOutOfRange { row, accel, value } => {
                write!(f, "X[{row}][{accel}] = {value} outside [0, 1]")
            }
            ValidityError::JobOversubscribed { job, total } => {
                write!(f, "{job} allocated {total} > 1 across its combos")
            }
            ValidityError::WorkerOversubscribed {
                accel,
                total,
                capacity,
            } => {
                write!(f, "type {accel} allocated {total} > {capacity} workers")
            }
            ValidityError::ShapeMismatch => write!(f, "allocation shape mismatch"),
        }
    }
}

impl std::error::Error for ValidityError {}

impl Allocation {
    /// Wraps a value matrix with its combo labels; the first row's length
    /// is the number of accelerator types.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != combos.len()` or a row's length differs
    /// from the first row's.
    pub fn new(combos: ComboSet, values: Vec<Vec<f64>>) -> Self {
        assert_eq!(values.len(), combos.len(), "allocation row count mismatch");
        let num_types = values.first().map_or(0, Vec::len);
        let mut flat = Vec::with_capacity(values.len() * num_types);
        for (k, row) in values.iter().enumerate() {
            assert_eq!(
                row.len(),
                num_types,
                "row {k} has {} entries, expected {num_types}",
                row.len()
            );
            flat.extend_from_slice(row);
        }
        Self::from_flat(combos, num_types, flat)
    }

    /// Wraps row-major `values` with their combo labels: row `k`'s share
    /// of type `j` is `values[k * num_types + j]`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != combos.len() * num_types`.
    pub fn from_flat(combos: ComboSet, num_types: usize, values: Vec<f64>) -> Self {
        assert_eq!(
            values.len(),
            combos.len() * num_types,
            "allocation holds {} values, expected {} rows of {num_types}",
            values.len(),
            combos.len()
        );
        Allocation {
            combos,
            num_types,
            values,
        }
    }

    /// An all-zero allocation over `combos` for a cluster with `num_types`
    /// accelerator types.
    pub fn zeros(combos: ComboSet, num_types: usize) -> Self {
        let values = vec![0.0; combos.len() * num_types];
        Self::from_flat(combos, num_types, values)
    }

    /// Row labels.
    pub fn combos(&self) -> &ComboSet {
        &self.combos
    }

    /// The values of combo row `k`, one per accelerator type.
    pub fn row(&self, k: usize) -> &[f64] {
        &self.values[k * self.num_types..][..self.num_types]
    }

    /// Value at combo row `k`, type `j`.
    pub fn get(&self, k: usize, j: AccelIdx) -> f64 {
        self.row(k)[j.0]
    }

    /// Mutable value at combo row `k`, type `j`.
    pub fn get_mut(&mut self, k: usize, j: AccelIdx) -> &mut f64 {
        &mut self.values[k * self.num_types..][..self.num_types][j.0]
    }

    /// Effective throughput of `job` under this allocation (§3.1):
    /// the time-weighted average throughput across accelerator types and
    /// combos containing the job.
    pub fn effective_throughput(&self, tensor: &ThroughputTensor, job: JobId) -> f64 {
        let mut total = 0.0;
        for k in self.combos.job_rows(job) {
            let combo = &self.combos.combos()[k];
            for j in 0..tensor.num_types() {
                let t = tensor.entry(k, AccelIdx(j));
                total += t.for_job(combo, job) * self.row(k)[j];
            }
        }
        total
    }

    /// Total time fraction allocated to `job` across all its combos and
    /// types (must be at most 1 in a valid allocation).
    pub fn job_total(&self, job: JobId) -> f64 {
        (self.combos.job_rows(job))
            .map(|k| self.row(k).iter().sum::<f64>())
            .sum()
    }

    /// Checks the §3.1 validity constraints with tolerance [`EPSILON`]:
    /// entries within `[0, 1]`, per-job totals at most 1, and per-type
    /// scale-factor-weighted usage at most the worker count.
    ///
    /// `scale_factor` maps each job to its worker count (1 when absent);
    /// combos use the maximum scale factor of their members (pairs are
    /// formed between jobs of equal scale factor in practice).
    pub fn validate(
        &self,
        cluster: &ClusterSpec,
        scale_factor: &HashMap<JobId, u32>,
    ) -> Result<(), ValidityError> {
        if self.num_types != cluster.num_types() && !self.combos.is_empty() {
            return Err(ValidityError::ShapeMismatch);
        }
        for (i, &v) in self.values.iter().enumerate() {
            if !(-EPSILON..=1.0 + EPSILON).contains(&v) {
                return Err(ValidityError::EntryOutOfRange {
                    row: i / self.num_types,
                    accel: i % self.num_types,
                    value: v,
                });
            }
        }
        for &job in self.combos.jobs() {
            let total = self.job_total(job);
            if total > 1.0 + EPSILON * 10.0 {
                return Err(ValidityError::JobOversubscribed { job, total });
            }
        }
        let slot_scale: Vec<u32> = (self.combos.jobs().iter())
            .map(|job| *scale_factor.get(job).unwrap_or(&1))
            .collect();
        for j in cluster.types() {
            let mut total = 0.0;
            for k in 0..self.combos.len() {
                let [a, b] = self.combos.members(k);
                total += self.get(k, j) * slot_scale[a].max(slot_scale[b]) as f64;
            }
            let capacity = cluster.num_workers(j) as f64;
            if total > capacity + CAPACITY_TOLERANCE {
                return Err(ValidityError::WorkerOversubscribed {
                    accel: j.0,
                    total,
                    capacity,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combo::Combo;
    use crate::tensor::PairThroughput;

    fn cluster() -> ClusterSpec {
        ClusterSpec::new(&[("v100", 1, 1, 0.0), ("k80", 1, 1, 0.0)])
    }

    fn scale1(jobs: &[JobId]) -> HashMap<JobId, u32> {
        jobs.iter().map(|&j| (j, 1)).collect()
    }

    #[test]
    fn effective_throughput_singletons() {
        // Paper example from §4.1: T = [[4,1],[3,1],[2,1]], allocation
        // X_het = [[0.45,0],[0.45,0.09],[0.09,0.91]].
        let jobs = [JobId(0), JobId(1), JobId(2)];
        let combos = ComboSet::singletons(&jobs);
        let tensor = ThroughputTensor::new(
            2,
            vec![
                vec![PairThroughput::single(4.0), PairThroughput::single(1.0)],
                vec![PairThroughput::single(3.0), PairThroughput::single(1.0)],
                vec![PairThroughput::single(2.0), PairThroughput::single(1.0)],
            ],
        );
        let alloc = Allocation::new(
            combos,
            vec![vec![0.45, 0.0], vec![0.45, 0.09], vec![0.09, 0.91]],
        );
        let t0 = alloc.effective_throughput(&tensor, JobId(0));
        let t1 = alloc.effective_throughput(&tensor, JobId(1));
        let t2 = alloc.effective_throughput(&tensor, JobId(2));
        assert!((t0 - 1.8).abs() < 1e-9);
        assert!((t1 - 1.44).abs() < 1e-9);
        assert!((t2 - 1.09).abs() < 1e-9);
        alloc
            .validate(&cluster(), &scale1(&jobs))
            .expect("paper allocation is valid");
    }

    #[test]
    fn effective_throughput_with_pairs() {
        let j0 = JobId(0);
        let j1 = JobId(1);
        let combos = ComboSet::new(vec![
            Combo::single(j0),
            Combo::single(j1),
            Combo::pair(j0, j1),
        ]);
        let tensor = ThroughputTensor::new(
            1,
            vec![
                vec![PairThroughput::single(4.0)],
                vec![PairThroughput::single(3.0)],
                vec![PairThroughput::pair(2.0, 1.5)],
            ],
        );
        let alloc = Allocation::new(combos, vec![vec![0.2], vec![0.0], vec![0.8]]);
        // Job 0: 0.2*4 + 0.8*2 = 2.4; job 1: 0.8*1.5 = 1.2.
        assert!((alloc.effective_throughput(&tensor, j0) - 2.4).abs() < 1e-9);
        assert!((alloc.effective_throughput(&tensor, j1) - 1.2).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "holds 5 values, expected 2 rows of 3")]
    fn flat_length_must_match_the_combos() {
        let combos = ComboSet::singletons(&[JobId(0), JobId(1)]);
        Allocation::from_flat(combos, 3, vec![0.0; 5]);
    }

    #[test]
    #[should_panic(expected = "row 1 has 1 entries, expected 2")]
    fn ragged_rows_rejected() {
        let combos = ComboSet::singletons(&[JobId(0), JobId(1)]);
        Allocation::new(combos, vec![vec![0.5, 0.5], vec![1.0]]);
    }

    /// `row`, `get` and `get_mut` address the cells of the nested matrix
    /// the allocation was built from, whichever constructor built it.
    #[test]
    fn flat_and_nested_constructors_agree() {
        let jobs = [JobId(0), JobId(1), JobId(2)];
        let mut nested = vec![vec![0.1, 0.2], vec![0.3, 0.4], vec![0.2, 0.1]];
        let mut flat = Allocation::from_flat(ComboSet::singletons(&jobs), 2, nested.concat());
        let mut alloc = Allocation::new(ComboSet::singletons(&jobs), nested.clone());
        let mut zeros = Allocation::zeros(ComboSet::singletons(&jobs), 2);
        for (k, j) in [(2, 1), (0, 0)] {
            nested[k][j] += 0.25;
            *flat.get_mut(k, AccelIdx(j)) += 0.25;
            *alloc.get_mut(k, AccelIdx(j)) += 0.25;
        }
        for (k, row) in nested.iter().enumerate() {
            assert_eq!(flat.row(k), &row[..]);
            assert_eq!(alloc.row(k), &row[..]);
            assert_eq!(zeros.row(k), [0.0, 0.0]);
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(flat.get(k, AccelIdx(j)), v);
                *zeros.get_mut(k, AccelIdx(j)) = v;
            }
            assert_eq!(zeros.row(k), &row[..]);
        }
        // A cluster of another width is a shape mismatch, not a misread.
        let fits = flat.validate(&cluster(), &scale1(&jobs));
        assert!(fits.is_ok(), "{fits:?}");
        let wide = ClusterSpec::new(&[("a", 1, 1, 0.0), ("b", 1, 1, 0.0), ("c", 1, 1, 0.0)]);
        let err = flat.validate(&wide, &scale1(&jobs)).unwrap_err();
        assert_eq!(err, ValidityError::ShapeMismatch);
    }

    #[test]
    fn job_oversubscription_detected() {
        let jobs = [JobId(0)];
        let combos = ComboSet::singletons(&jobs);
        let alloc = Allocation::new(combos, vec![vec![0.7, 0.7]]);
        let err = alloc.validate(&cluster(), &scale1(&jobs)).unwrap_err();
        assert!(matches!(err, ValidityError::JobOversubscribed { .. }));
    }

    #[test]
    fn worker_oversubscription_detected() {
        let jobs = [JobId(0), JobId(1)];
        let combos = ComboSet::singletons(&jobs);
        let alloc = Allocation::new(combos, vec![vec![0.8, 0.0], vec![0.8, 0.0]]);
        let err = alloc.validate(&cluster(), &scale1(&jobs)).unwrap_err();
        assert!(matches!(err, ValidityError::WorkerOversubscribed { .. }));
    }

    #[test]
    fn scale_factor_consumes_more_workers() {
        let jobs = [JobId(0)];
        let combos = ComboSet::singletons(&jobs);
        let big = ClusterSpec::new(&[("v100", 2, 2, 0.0)]);
        let sf: HashMap<JobId, u32> = [(JobId(0), 4u32)].into();
        let alloc = Allocation::new(combos, vec![vec![1.0]]);
        // One job at scale factor 4 on 2 workers: 4 > 2 is oversubscribed.
        let err = alloc.validate(&big, &sf).unwrap_err();
        assert!(matches!(err, ValidityError::WorkerOversubscribed { .. }));
    }

    #[test]
    fn entry_out_of_range_detected() {
        let jobs = [JobId(0)];
        let combos = ComboSet::singletons(&jobs);
        let alloc = Allocation::new(combos, vec![vec![1.2, 0.0]]);
        let err = alloc.validate(&cluster(), &scale1(&jobs)).unwrap_err();
        assert!(matches!(err, ValidityError::EntryOutOfRange { .. }));
    }

    #[test]
    fn pair_allocation_counts_against_both_jobs() {
        let j0 = JobId(0);
        let j1 = JobId(1);
        let combos = ComboSet::new(vec![Combo::single(j0), Combo::pair(j0, j1)]);
        let alloc = Allocation::new(combos, vec![vec![0.5, 0.0], vec![0.6, 0.0]]);
        // Job 0 total: 0.5 + 0.6 = 1.1 > 1.
        let err = alloc.validate(&cluster(), &scale1(&[j0, j1])).unwrap_err();
        assert!(matches!(err, ValidityError::JobOversubscribed { job, .. } if job == j0));
    }
}
