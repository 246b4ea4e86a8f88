//! The throughput tensor `T`.
//!
//! `T[k][j]` holds the steady-state training throughput (iterations/second)
//! of combo row `k` on accelerator type `j`. For a singleton row this is one
//! number; for a space-sharing pair it is one number per job in the pair
//! (colocated jobs generally run at different speeds, Figure 15). A zero
//! throughput encodes "cannot run on this type" — the paper's `-inf` — e.g.
//! due to GPU memory limits.

use crate::cluster::AccelIdx;
use crate::combo::{Combo, ComboSet};
use crate::JobId;

/// Throughput of a combo on one accelerator type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairThroughput {
    /// Throughput of the combo's first job (`Combo::a`).
    pub a: f64,
    /// Throughput of the combo's second job (zero for singletons).
    pub b: f64,
}

impl PairThroughput {
    /// Throughput entry for a singleton combo.
    pub fn single(tput: f64) -> Self {
        PairThroughput { a: tput, b: 0.0 }
    }

    /// Throughput entry for a pair combo.
    pub fn pair(a: f64, b: f64) -> Self {
        PairThroughput { a, b }
    }

    /// Zero throughput (cannot run).
    pub fn zero() -> Self {
        PairThroughput { a: 0.0, b: 0.0 }
    }

    /// Throughput that `job` achieves within combo `c` under this entry.
    pub fn for_job(&self, c: &Combo, job: JobId) -> f64 {
        if c.a == job {
            self.a
        } else if c.b == Some(job) {
            self.b
        } else {
            0.0
        }
    }

    /// Sum of both jobs' throughputs (aggregate rate of the combo).
    pub fn total(&self) -> f64 {
        self.a + self.b
    }

    /// Whether the combo can run at all on this type.
    pub fn runnable(&self) -> bool {
        self.a > 0.0 || self.b > 0.0
    }
}

/// Dense throughput tensor with rows parallel to a [`ComboSet`].
#[derive(Debug, Clone)]
pub struct ThroughputTensor {
    num_types: usize,
    /// Row-major: `num_types` entries per combo row.
    entries: Vec<PairThroughput>,
}

impl ThroughputTensor {
    /// Creates a tensor with `rows[k][j]` giving the throughput of combo `k`
    /// on type `j`.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from `num_types`, or any
    /// throughput is negative or non-finite.
    pub fn new(num_types: usize, rows: Vec<Vec<PairThroughput>>) -> Self {
        let mut entries = Vec::with_capacity(rows.len() * num_types);
        for (k, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                num_types,
                "row {k} has {} entries, expected {num_types}",
                row.len()
            );
            entries.extend_from_slice(row);
        }
        Self::from_flat(num_types, entries)
    }

    /// Creates a tensor from row-major `entries`: combo `k`'s throughput
    /// on type `j` is `entries[k * num_types + j]`.
    ///
    /// # Panics
    ///
    /// Panics if `entries` does not divide into rows of `num_types`, or
    /// any throughput is negative or non-finite.
    pub fn from_flat(num_types: usize, entries: Vec<PairThroughput>) -> Self {
        let rows = entries.len().checked_div(num_types).unwrap_or(0);
        assert_eq!(
            entries.len(),
            rows * num_types,
            "{} entries do not divide into rows of {num_types}",
            entries.len()
        );
        for (i, t) in entries.iter().enumerate() {
            assert!(
                t.a.is_finite() && t.b.is_finite() && t.a >= 0.0 && t.b >= 0.0,
                "invalid throughput at row {}, type {}: {t:?}",
                i / num_types,
                i % num_types
            );
        }
        ThroughputTensor { num_types, entries }
    }

    /// Number of accelerator types (columns).
    pub fn num_types(&self) -> usize {
        self.num_types
    }

    /// Number of combo rows.
    pub fn num_rows(&self) -> usize {
        self.entries.len().checked_div(self.num_types).unwrap_or(0)
    }

    /// Throughput entry of combo row `k` on type `j`.
    pub fn entry(&self, k: usize, j: AccelIdx) -> PairThroughput {
        self.row(k)[j.0]
    }

    /// Full row `k`.
    pub fn row(&self, k: usize) -> &[PairThroughput] {
        &self.entries[k * self.num_types..][..self.num_types]
    }

    /// The fastest single-job throughput of row `k` across types (used by
    /// the FIFO policy's `X_fastest` normalization).
    pub fn max_total(&self, k: usize) -> f64 {
        self.row(k).iter().map(|t| t.total()).fold(0.0, f64::max)
    }

    /// Whether combo row `k` can run anywhere in the cluster.
    pub fn runnable_anywhere(&self, k: usize) -> bool {
        self.row(k).iter().any(|t| t.runnable())
    }
}

/// Convenience: builds a singleton-rows tensor from a plain matrix
/// `tputs[m][j]` of per-job throughputs.
pub fn tensor_from_job_matrix(tputs: &[Vec<f64>]) -> (ComboSet, ThroughputTensor) {
    let jobs: Vec<JobId> = (0..tputs.len() as u64).map(JobId).collect();
    let combos = ComboSet::singletons(&jobs);
    let num_types = tputs.first().map_or(0, |r| r.len());
    let rows = tputs
        .iter()
        .map(|r| r.iter().map(|&t| PairThroughput::single(t)).collect())
        .collect();
    (combos, ThroughputTensor::new(num_types, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_job_resolves_pair_members() {
        let c = Combo::pair(JobId(1), JobId(2));
        let t = PairThroughput::pair(2.0, 1.5);
        assert_eq!(t.for_job(&c, JobId(1)), 2.0);
        assert_eq!(t.for_job(&c, JobId(2)), 1.5);
        assert_eq!(t.for_job(&c, JobId(3)), 0.0);
    }

    #[test]
    fn max_total_and_runnable() {
        let rows = vec![
            vec![
                PairThroughput::single(4.0),
                PairThroughput::single(2.0),
                PairThroughput::zero(),
            ],
            vec![
                PairThroughput::zero(),
                PairThroughput::zero(),
                PairThroughput::zero(),
            ],
        ];
        let t = ThroughputTensor::new(3, rows);
        assert_eq!(t.max_total(0), 4.0);
        assert!(t.runnable_anywhere(0));
        assert!(!t.runnable_anywhere(1));
    }

    #[test]
    #[should_panic(expected = "expected 2")]
    fn ragged_rows_rejected() {
        ThroughputTensor::new(2, vec![vec![PairThroughput::single(1.0)]]);
    }

    #[test]
    #[should_panic(expected = "invalid throughput")]
    fn negative_throughput_rejected() {
        ThroughputTensor::new(1, vec![vec![PairThroughput::single(-1.0)]]);
    }

    #[test]
    #[should_panic(expected = "5 entries do not divide into rows of 2")]
    fn flat_length_must_be_whole_rows() {
        ThroughputTensor::from_flat(2, vec![PairThroughput::single(1.0); 5]);
    }

    #[test]
    #[should_panic(expected = "invalid throughput at row 1, type 0")]
    fn flat_negative_throughput_rejected() {
        let mut entries = vec![PairThroughput::single(1.0); 4];
        entries[2] = PairThroughput::pair(1.0, -0.5);
        ThroughputTensor::from_flat(2, entries);
    }

    #[test]
    #[should_panic(expected = "invalid throughput at row 2, type 1")]
    fn flat_non_finite_throughput_rejected() {
        let mut entries = vec![PairThroughput::single(1.0); 6];
        entries[5] = PairThroughput::single(f64::NAN);
        ThroughputTensor::from_flat(2, entries);
    }

    /// Both constructors serve the rows they were given.
    #[test]
    fn flat_and_nested_constructors_agree() {
        let nested: Vec<Vec<PairThroughput>> = (0..4)
            .map(|k| {
                (0..3)
                    .map(|j| PairThroughput::pair(k as f64, j as f64))
                    .collect()
            })
            .collect();
        let flat = ThroughputTensor::from_flat(3, nested.concat());
        let tensor = ThroughputTensor::new(3, nested.clone());
        assert_eq!((flat.num_rows(), flat.num_types()), (4, 3));
        assert_eq!((tensor.num_rows(), tensor.num_types()), (4, 3));
        for (k, row) in nested.iter().enumerate() {
            assert_eq!(flat.row(k), &row[..]);
            assert_eq!(tensor.row(k), &row[..]);
            for (j, &t) in row.iter().enumerate() {
                assert_eq!(flat.entry(k, AccelIdx(j)), t);
            }
        }
    }

    #[test]
    fn from_job_matrix() {
        let (combos, tensor) = tensor_from_job_matrix(&[vec![4.0, 1.0], vec![3.0, 1.0]]);
        assert_eq!(combos.len(), 2);
        assert_eq!(tensor.num_types(), 2);
        assert_eq!(tensor.entry(0, AccelIdx(0)).a, 4.0);
    }
}
