//! Fingerprint matching and online refinement (Figure 7 of the paper).

use crate::als::MatrixCompletion;
use std::collections::HashMap;

/// Exponential-moving-average weight given to a fresh online measurement
/// when refining an estimate.
const REFINE_ALPHA: f64 = 0.5;

/// Configuration of the [`ThroughputEstimator`].
#[derive(Debug, Clone, Default)]
pub struct EstimatorConfig {
    /// Matrix-completion solver.
    pub completion: MatrixCompletion,
}

/// Quasar-style estimator: maps new jobs onto pre-profiled reference jobs
/// through sparse profiling plus matrix completion, then refines online.
///
/// The reference matrix `R` is `r x r`: entry `(i, j)` is reference job
/// `i`'s normalized throughput when colocated with reference job `j`.
///
/// # Revision tracking
///
/// Every state change to a tracked job — [`register_job`] establishing its
/// fingerprint and initial row, [`refine`] blending in an online
/// measurement — stamps the job with the current value of a monotone
/// global [`clock`]. Consumers that cache values derived from estimate
/// rows (the simulator's bridged snapshot cache) remember the clock at
/// their last sync and ask [`changed_since`] which jobs drifted, instead
/// of assuming every estimate moved. [`forget`] clears a job's revision
/// along with its row, so a reused key starts fresh; because revisions
/// come from the global clock, a re-registered key always stamps strictly
/// newer than anything it carried before.
///
/// [`register_job`]: ThroughputEstimator::register_job
/// [`refine`]: ThroughputEstimator::refine
/// [`forget`]: ThroughputEstimator::forget
/// [`clock`]: ThroughputEstimator::clock
/// [`changed_since`]: ThroughputEstimator::changed_since
#[derive(Debug, Clone)]
pub struct ThroughputEstimator {
    reference: Vec<Vec<f64>>,
    config: EstimatorConfig,
    /// Per-tracked-job estimated colocation rows (indexed by caller key).
    estimates: HashMap<u64, Vec<f64>>,
    /// Which reference each tracked job mapped to.
    matched: HashMap<u64, usize>,
    /// Monotone change counter; bumped by every mutation of a tracked
    /// job's state.
    clock: u64,
    /// Per-tracked-job last-change stamp (values of `clock`).
    revisions: HashMap<u64, u64>,
}

impl ThroughputEstimator {
    /// Creates an estimator from a fully profiled reference matrix.
    ///
    /// # Panics
    ///
    /// Panics if `reference` is empty or not square.
    pub fn new(reference: Vec<Vec<f64>>, config: EstimatorConfig) -> Self {
        let r = reference.len();
        assert!(r > 0, "empty reference matrix");
        assert!(
            reference.iter().all(|row| row.len() == r),
            "reference matrix must be square"
        );
        ThroughputEstimator {
            reference,
            config,
            estimates: HashMap::new(),
            matched: HashMap::new(),
            clock: 0,
            revisions: HashMap::new(),
        }
    }

    /// Registers a new job from sparse profiling measurements:
    /// `profiled[j] = Some(v)` gives the job's normalized colocated
    /// throughput against reference `j`.
    ///
    /// Completes the extended matrix, fingerprints the job, and stores the
    /// most similar reference's row (blended with the completed row) as the
    /// initial estimate. Returns the matched reference index.
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
        let mut completion = self.config.completion.clone();
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
                    .partial_cmp(&euclidean(&self.reference[b], fingerprint))
                    .unwrap()
            })
            .expect("non-empty reference set");

        // Initial estimate: the matched reference row, overridden by any
        // directly profiled entries.
        let mut row = self.reference[matched].clone();
        for (j, v) in profiled.iter().enumerate() {
            if let Some(v) = v {
                row[j] = *v;
            }
        }
        self.estimates.insert(key, row);
        self.matched.insert(key, matched);
        self.clock += 1;
        self.revisions.insert(key, self.clock);
        matched
    }

    /// The current estimated colocation row for `key`, if registered.
    pub fn estimate(&self, key: u64) -> Option<&[f64]> {
        self.estimates.get(&key).map(|v| v.as_slice())
    }

    /// The reference index `key` was matched to, if registered.
    pub fn matched_reference(&self, key: u64) -> Option<usize> {
        self.matched.get(&key).copied()
    }

    /// Feeds an online measurement: the job's observed normalized
    /// throughput against reference-class `j`, blended in by EMA.
    ///
    /// A no-op for unregistered keys — it neither creates state nor bumps
    /// the job's revision, so cached derivations stay valid.
    pub fn refine(&mut self, key: u64, j: usize, measured: f64) {
        if let Some(row) = self.estimates.get_mut(&key) {
            row[j] = (1.0 - REFINE_ALPHA) * row[j] + REFINE_ALPHA * measured;
            self.clock += 1;
            self.revisions.insert(key, self.clock);
        }
    }

    /// Removes a completed job's state, including its revision stamp (no
    /// leak across reused keys; see the type docs).
    pub fn forget(&mut self, key: u64) {
        self.estimates.remove(&key);
        self.matched.remove(&key);
        self.revisions.remove(&key);
    }

    /// The current value of the monotone change clock. Snapshot this
    /// before reading estimates, then pass it to [`Self::changed_since`]
    /// later to learn which jobs drifted in between.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The clock value at `key`'s last state change, if registered.
    pub fn revision(&self, key: u64) -> Option<u64> {
        self.revisions.get(&key).copied()
    }

    /// Keys of all tracked jobs whose state changed after `epoch` (a value
    /// previously obtained from [`Self::clock`]). Forgotten jobs are not
    /// reported — their state is gone, not merely stale.
    pub fn changed_since(&self, epoch: u64) -> impl Iterator<Item = u64> + '_ {
        self.revisions
            .iter()
            .filter(move |&(_, &rev)| rev > epoch)
            .map(|(&key, _)| key)
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
        let mut est = ThroughputEstimator::new(reference(), EstimatorConfig::default());
        // A job profiled against references 0 and 1 with heavy-like values.
        let matched = est.register_job(42, &[Some(0.74), Some(0.56), None]);
        assert_eq!(matched, 2, "heavy contention profile should match row 2");
        let row = est.estimate(42).unwrap();
        // Profiled entries preserved, the rest from the matched reference.
        assert!((row[0] - 0.74).abs() < 1e-9);
        assert!((row[1] - 0.56).abs() < 1e-9);
        assert!((row[2] - 0.40).abs() < 1e-9);
    }

    #[test]
    fn exact_profile_matches_itself() {
        let mut est = ThroughputEstimator::new(reference(), EstimatorConfig::default());
        let matched = est.register_job(1, &[Some(0.85), Some(0.70), Some(0.55)]);
        assert_eq!(matched, 1);
    }

    #[test]
    fn online_refinement_converges() {
        let mut est = ThroughputEstimator::new(reference(), EstimatorConfig::default());
        est.register_job(7, &[Some(0.95), None, None]);
        // True value against reference 2 is 0.6; feed measurements.
        for _ in 0..10 {
            est.refine(7, 2, 0.6);
        }
        let row = est.estimate(7).unwrap();
        assert!((row[2] - 0.6).abs() < 0.01, "refined to {}", row[2]);
    }

    #[test]
    fn forget_clears_state() {
        let mut est = ThroughputEstimator::new(reference(), EstimatorConfig::default());
        est.register_job(9, &[Some(0.9), None, None]);
        est.forget(9);
        assert!(est.estimate(9).is_none());
        assert!(est.matched_reference(9).is_none());
    }

    #[test]
    fn revisions_track_register_and_refine() {
        let mut est = ThroughputEstimator::new(reference(), EstimatorConfig::default());
        assert_eq!(est.clock(), 0);
        let epoch0 = est.clock();
        est.register_job(1, &[Some(0.9), None, None]);
        est.register_job(2, &[Some(0.7), Some(0.55), None]);
        let after_registration = est.clock();
        assert!(after_registration > epoch0);
        let mut dirty: Vec<u64> = est.changed_since(epoch0).collect();
        dirty.sort_unstable();
        assert_eq!(dirty, vec![1, 2]);

        // Refining job 1 moves only job 1 past the new epoch.
        est.refine(1, 2, 0.5);
        let dirty: Vec<u64> = est.changed_since(after_registration).collect();
        assert_eq!(dirty, vec![1]);
        assert!(est.revision(1).unwrap() > est.revision(2).unwrap());
    }

    #[test]
    fn refine_on_unregistered_key_dirties_nothing() {
        let mut est = ThroughputEstimator::new(reference(), EstimatorConfig::default());
        est.register_job(1, &[Some(0.9), None, None]);
        let epoch = est.clock();
        est.refine(99, 0, 0.5);
        assert_eq!(est.clock(), epoch, "no-op refine must not tick the clock");
        assert_eq!(est.changed_since(epoch).count(), 0);
        assert!(est.estimate(99).is_none(), "no state materialized");
        assert!(est.revision(99).is_none());
    }

    #[test]
    fn forget_clears_revision_and_reuse_stamps_fresh() {
        let mut est = ThroughputEstimator::new(reference(), EstimatorConfig::default());
        est.register_job(5, &[Some(0.9), None, None]);
        est.refine(5, 1, 0.6);
        let high_water = est.revision(5).unwrap();
        est.forget(5);
        assert!(est.revision(5).is_none(), "revision entry must be dropped");
        assert_eq!(est.changed_since(0).count(), 0, "no leaked dirty keys");

        // A reused key starts over with a strictly newer stamp: stale
        // cached derivations keyed by the old revision can never match.
        est.register_job(5, &[Some(0.7), Some(0.55), None]);
        assert!(est.revision(5).unwrap() > high_water);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_reference_rejected() {
        ThroughputEstimator::new(vec![vec![1.0, 2.0]], EstimatorConfig::default());
    }

    #[test]
    fn estimation_error_is_bounded_on_noisy_profiles() {
        // Jobs that are noisy versions of reference rows should match their
        // own class and produce small estimation error.
        let refm = reference();
        let mut est = ThroughputEstimator::new(refm.clone(), EstimatorConfig::default());
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
            let got = est.estimate(key).unwrap();
            for (g, t) in got.iter().zip(true_row) {
                assert!(
                    (g - t).abs() / t < 0.25,
                    "class {class}: estimate {g} vs true {t}"
                );
            }
        }
    }
}
