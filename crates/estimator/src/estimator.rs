//! Fingerprint matching and online refinement (Figure 7 of the paper).

use crate::als::MatrixCompletion;
use std::collections::HashMap;

/// Exponential-moving-average weight given to a fresh online measurement
/// when refining an estimate.
const REFINE_ALPHA: f64 = 0.5;

/// Quasar-style estimator: maps new jobs onto pre-profiled reference jobs
/// through sparse profiling plus matrix completion, then refines online.
///
/// The reference matrix `R` is `r x r`: entry `(i, j)` is reference job
/// `i`'s normalized throughput when colocated with reference job `j`.
///
/// # Drift
///
/// [`register_job`](Self::register_job) and [`refine`](Self::refine) list
/// the key they changed; the one reader that caches values derived from
/// estimate rows drains the list with [`take_dirty`](Self::take_dirty).
#[derive(Debug, Clone)]
pub struct ThroughputEstimator {
    reference: Vec<Vec<f64>>,
    /// Per tracked job (by caller key): the reference it matched and its
    /// estimated colocation row.
    estimates: HashMap<u64, (usize, Vec<f64>)>,
    /// Keys registered or refined since the last [`Self::take_dirty`].
    dirty: Vec<u64>,
}

impl ThroughputEstimator {
    /// Creates an estimator from a fully profiled reference matrix.
    ///
    /// # Panics
    ///
    /// Panics if `reference` is empty or not square.
    pub fn new(reference: Vec<Vec<f64>>) -> Self {
        let r = reference.len();
        assert!(r > 0, "empty reference matrix");
        assert!(
            reference.iter().all(|row| row.len() == r),
            "reference matrix must be square"
        );
        ThroughputEstimator {
            reference,
            estimates: HashMap::new(),
            dirty: Vec::new(),
        }
    }

    /// Registers a new job from sparse profiling measurements:
    /// `profiled[j] = Some(v)` gives the job's normalized colocated
    /// throughput against reference `j`.
    ///
    /// Completes the extended matrix, fingerprints the job by its
    /// completed row, and stores a copy of the nearest reference's row,
    /// with the profiled entries written over it, as the initial estimate;
    /// no completed value enters the estimate. Returns the matched
    /// reference index.
    pub fn register_job(&mut self, key: u64, profiled: &[Option<f64>]) -> usize {
        let r = self.reference.len();
        assert_eq!(profiled.len(), r, "profile vector length mismatch");

        // Extended matrix: references (dense) + the new row (sparse).
        let mut observed: Vec<Vec<Option<f64>>> = self
            .reference
            .iter()
            .map(|row| row.iter().map(|&v| Some(v)).collect())
            .collect();
        observed.push(profiled.to_vec());
        // Keep the rank strictly below the observation count of the new
        // row: at rank == observations the factors interpolate the (noisy)
        // profile exactly and extrapolate wildly to unseen columns.
        let num_obs = profiled.iter().flatten().count();
        let mut completion = MatrixCompletion::default();
        completion.rank = completion.rank.min(num_obs.saturating_sub(1)).max(1);
        let completed = completion.complete(&observed);
        let fingerprint = &completed[r];

        // Nearest reference by Euclidean distance between fingerprints.
        // (Cosine similarity would discard the magnitude that separates
        // light from heavy contention classes, whose row *shapes* are all
        // similar.)
        let matched = (0..r)
            .min_by(|&a, &b| {
                euclidean(&self.reference[a], fingerprint)
                    .total_cmp(&euclidean(&self.reference[b], fingerprint))
            })
            // `new` refuses an empty reference set, so `0..r` has an item.
            .expect("non-empty reference set");

        // Initial estimate: the matched reference row, overridden by any
        // directly profiled entries.
        let mut row = self.reference[matched].clone();
        for (j, v) in profiled.iter().enumerate() {
            if let Some(v) = v {
                row[j] = *v;
            }
        }
        self.estimates.insert(key, (matched, row));
        self.dirty.push(key);
        matched
    }

    /// The reference index `key` was matched to and its current estimated
    /// colocation row, if registered.
    pub fn estimate(&self, key: u64) -> Option<(usize, &[f64])> {
        (self.estimates.get(&key)).map(|(matched, row)| (*matched, row.as_slice()))
    }

    /// Feeds an online measurement: the job's observed normalized
    /// throughput against reference-class `j`, blended in by EMA.
    ///
    /// A no-op for unregistered keys — it neither creates state nor lists
    /// the key as dirty, so cached derivations stay valid.
    pub fn refine(&mut self, key: u64, j: usize, measured: f64) {
        if let Some((_, row)) = self.estimates.get_mut(&key) {
            row[j] = (1.0 - REFINE_ALPHA) * row[j] + REFINE_ALPHA * measured;
            self.dirty.push(key);
        }
    }

    /// Removes a completed job's state.
    pub fn forget(&mut self, key: u64) {
        self.estimates.remove(&key);
    }

    /// Hands over the keys registered or refined since the last call, in
    /// the order they changed. A key changed twice is listed twice, and
    /// one forgotten since may still be listed.
    pub fn take_dirty(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.dirty)
    }
}

fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three synthetic reference classes: light, medium, heavy contention.
    fn reference() -> Vec<Vec<f64>> {
        vec![
            vec![0.95, 0.90, 0.80],
            vec![0.85, 0.70, 0.55],
            vec![0.75, 0.55, 0.40],
        ]
    }

    #[test]
    fn matches_obvious_fingerprint() {
        let mut est = ThroughputEstimator::new(reference());
        // A job profiled against references 0 and 1 with heavy-like values.
        let matched = est.register_job(42, &[Some(0.74), Some(0.56), None]);
        assert_eq!(matched, 2, "heavy contention profile should match row 2");
        let (_, row) = est.estimate(42).unwrap();
        // Profiled entries preserved, the rest from the matched reference.
        assert!((row[0] - 0.74).abs() < 1e-9);
        assert!((row[1] - 0.56).abs() < 1e-9);
        assert!((row[2] - 0.40).abs() < 1e-9);
    }

    #[test]
    fn a_nan_profile_does_not_panic() {
        let mut est = ThroughputEstimator::new(reference());
        let matched = est.register_job(9, &[Some(f64::NAN), Some(0.7), None]);
        assert!(matched < reference().len());
    }

    #[test]
    fn exact_profile_matches_itself() {
        let mut est = ThroughputEstimator::new(reference());
        let matched = est.register_job(1, &[Some(0.85), Some(0.70), Some(0.55)]);
        assert_eq!(matched, 1);
    }

    #[test]
    fn online_refinement_converges() {
        let mut est = ThroughputEstimator::new(reference());
        est.register_job(7, &[Some(0.95), None, None]);
        // True value against reference 2 is 0.6; feed measurements.
        for _ in 0..10 {
            est.refine(7, 2, 0.6);
        }
        let (_, row) = est.estimate(7).unwrap();
        assert!((row[2] - 0.6).abs() < 0.01, "refined to {}", row[2]);
    }

    #[test]
    fn forget_clears_state() {
        let mut est = ThroughputEstimator::new(reference());
        est.register_job(9, &[Some(0.9), None, None]);
        est.forget(9);
        assert!(est.estimate(9).is_none());
    }

    #[test]
    fn take_dirty_lists_each_change_once() {
        let mut est = ThroughputEstimator::new(reference());
        assert!(est.take_dirty().is_empty());
        est.register_job(1, &[Some(0.9), None, None]);
        est.register_job(2, &[Some(0.7), Some(0.55), None]);
        est.refine(1, 2, 0.5);
        assert_eq!(est.take_dirty(), vec![1, 2, 1]);
        assert!(est.take_dirty().is_empty(), "the list was handed over");

        // Refining job 2 lists only job 2; forgetting it does not unlist
        // it, and a reused key is listed like a new one.
        est.refine(2, 0, 0.6);
        est.forget(2);
        est.register_job(2, &[Some(0.9), None, None]);
        assert_eq!(est.take_dirty(), vec![2, 2]);
    }

    #[test]
    fn refine_on_unregistered_key_dirties_nothing() {
        let mut est = ThroughputEstimator::new(reference());
        est.register_job(1, &[Some(0.9), None, None]);
        est.take_dirty();
        est.refine(99, 0, 0.5);
        assert!(est.take_dirty().is_empty());
        assert!(est.estimate(99).is_none(), "no state materialized");
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_reference_rejected() {
        ThroughputEstimator::new(vec![vec![1.0, 2.0]]);
    }

    #[test]
    fn estimation_error_is_bounded_on_noisy_profiles() {
        // Jobs that are noisy versions of reference rows should match their
        // own class and produce small estimation error.
        let refm = reference();
        let mut est = ThroughputEstimator::new(refm.clone());
        for (class, true_row) in refm.iter().enumerate() {
            // Profile two of three entries with 3% noise (the service
            // profiles five references; one observation alone
            // underdetermines a rank-2 fingerprint).
            let noisy: Vec<Option<f64>> = true_row
                .iter()
                .enumerate()
                .map(|(j, &v)| if j <= 1 { Some(v * 1.03) } else { None })
                .collect();
            let key = 100 + class as u64;
            est.register_job(key, &noisy);
            let (_, got) = est.estimate(key).unwrap();
            for (g, t) in got.iter().zip(true_row) {
                assert!(
                    (g - t).abs() / t < 0.25,
                    "class {class}: estimate {g} vs true {t}"
                );
            }
        }
    }
}
