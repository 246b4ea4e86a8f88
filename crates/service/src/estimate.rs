//! Bridges the throughput estimator into the simulator (Figure 14).
//!
//! The reference set is the 26 Table 2 configurations, "pre-profiled"
//! pairwise on a V100 through the oracle. Each arriving job is profiled
//! against a few random references (with measurement noise), fingerprinted
//! by matrix completion, and matched to its closest reference; pair
//! throughputs are then *estimated* as `isolated * estimated_normalized`
//! instead of taken from the oracle. Online refinement feeds back true
//! measurements whenever a pair actually runs. The service registers
//! every job on arrival; a pair with an unregistered member has no
//! estimate rather than a guessed one.
//!
//! Estimate drift is *observable*: [`EstimatorBridge::take_dirty`] hands
//! over the jobs registered or refined since the last call, so the
//! snapshot cache that owns the bridge re-derives only the pair rows that
//! actually moved instead of assuming every estimate drifted.

use gavel_core::JobId;
use gavel_estimator::{EstimatorConfig, ThroughputEstimator};
use gavel_workloads::{GpuKind, JobConfig, Oracle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How many reference jobs an arriving job is profiled against.
const PROFILE_SAMPLES: usize = 5;

/// Estimator wiring for the simulator.
#[derive(Debug, Clone)]
pub struct EstimatorBridge {
    estimator: ThroughputEstimator,
    references: Vec<JobConfig>,
    rng: StdRng,
    profile_noise: f64,
}

impl EstimatorBridge {
    /// Builds the reference matrix from the oracle and creates the bridge.
    pub fn new(oracle: &Oracle, seed: u64) -> Self {
        let references = JobConfig::all();
        let r = references.len();
        let mut matrix = vec![vec![0.0; r]; r];
        for (i, &a) in references.iter().enumerate() {
            for (j, &b) in references.iter().enumerate() {
                matrix[i][j] = normalized_colocated(oracle, a, b);
            }
        }
        EstimatorBridge {
            estimator: ThroughputEstimator::new(matrix, EstimatorConfig::default()),
            references,
            rng: StdRng::seed_from_u64(seed),
            profile_noise: 0.03,
        }
    }

    /// Profiles and registers an arriving job.
    pub fn register(&mut self, oracle: &Oracle, id: JobId, cfg: JobConfig) {
        let r = self.references.len();
        let mut profiled = vec![None; r];
        for _ in 0..PROFILE_SAMPLES {
            let j = self.rng.gen_range(0..r);
            let truth = normalized_colocated(oracle, cfg, self.references[j]);
            let noise = 1.0 + self.profile_noise * (self.rng.gen::<f64>() * 2.0 - 1.0);
            profiled[j] = Some(truth * noise);
        }
        self.estimator.register_job(id.0, &profiled);
    }

    /// Drops a completed job.
    pub fn forget(&mut self, id: JobId) {
        self.estimator.forget(id.0);
    }

    /// Estimated colocated throughputs of jobs `a` and `b` on `gpu`, or
    /// `None` when the pair does not fit in device memory (memory
    /// footprints are known a priori, so feasibility is not estimated) or
    /// a member was never registered.
    pub fn pair_throughput(
        &self,
        oracle: &Oracle,
        a: (JobId, JobConfig),
        b: (JobId, JobConfig),
        gpu: GpuKind,
    ) -> Option<(f64, f64)> {
        if oracle.memory_gb(a.1) + oracle.memory_gb(b.1) > gpu.memory_gb() {
            return None;
        }
        let class_a = self.estimator.matched_reference(a.0 .0)?;
        let class_b = self.estimator.matched_reference(b.0 .0)?;
        let norm_a = self.estimator.estimate(a.0 .0)?[class_b];
        let norm_b = self.estimator.estimate(b.0 .0)?[class_a];
        let iso_a = oracle.isolated(a.1, gpu);
        let iso_b = oracle.isolated(b.1, gpu);
        if iso_a <= 0.0 || iso_b <= 0.0 {
            return None;
        }
        Some((
            iso_a * norm_a.clamp(0.0, 1.0),
            iso_b * norm_b.clamp(0.0, 1.0),
        ))
    }

    /// Feeds back a true measurement after a pair of registered jobs
    /// actually ran.
    pub fn observe(
        &mut self,
        oracle: &Oracle,
        a: (JobId, JobConfig),
        b: (JobId, JobConfig),
        gpu: GpuKind,
    ) {
        let matched = |id: JobId| self.estimator.matched_reference(id.0);
        let (Some(class_a), Some(class_b)) = (matched(a.0), matched(b.0)) else {
            return;
        };
        if let Some((ta, tb)) = oracle.colocated(a.1, b.1, gpu) {
            let iso_a = oracle.isolated(a.1, gpu);
            let iso_b = oracle.isolated(b.1, gpu);
            if iso_a > 0.0 {
                self.estimator.refine(a.0 .0, class_b, ta / iso_a);
            }
            if iso_b > 0.0 {
                self.estimator.refine(b.0 .0, class_a, tb / iso_b);
            }
        }
    }

    /// Jobs whose estimator state (fingerprint row or matched class)
    /// changed since the last call, each once, in ascending id order. A
    /// job forgotten since may still be listed — callers drop their cached
    /// rows on removal anyway.
    pub fn take_dirty(&mut self) -> Vec<JobId> {
        let mut dirty: Vec<JobId> = (self.estimator.take_dirty().into_iter())
            .map(JobId)
            .collect();
        dirty.sort_unstable();
        dirty.dedup();
        dirty
    }
}

/// Normalized colocated throughput of `a` against `b` on the profiling GPU
/// (V100): colocated rate over isolated rate, or 0 when infeasible.
fn normalized_colocated(oracle: &Oracle, a: JobConfig, b: JobConfig) -> f64 {
    let gpu = GpuKind::V100;
    let iso = oracle.isolated(a, gpu);
    if iso <= 0.0 {
        return 0.0;
    }
    match oracle.colocated(a, b, gpu) {
        Some((ta, _)) => ta / iso,
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gavel_workloads::ModelFamily;

    #[test]
    fn estimates_close_to_oracle_for_profiled_pairs() {
        let oracle = Oracle::new();
        let mut bridge = EstimatorBridge::new(&oracle, 1);
        let a = (JobId(100), JobConfig::new(ModelFamily::A3C, 4));
        let b = (JobId(101), JobConfig::new(ModelFamily::ResNet18, 16));
        bridge.register(&oracle, a.0, a.1);
        bridge.register(&oracle, b.0, b.1);
        let est = bridge
            .pair_throughput(&oracle, a, b, GpuKind::V100)
            .expect("feasible pair");
        let truth = oracle.colocated(a.1, b.1, GpuKind::V100).unwrap();
        // Within 30% is plenty for scheduling purposes (Fig 14 shows small
        // JCT impact even with coarse estimates).
        assert!(
            (est.0 - truth.0).abs() / truth.0 < 0.3,
            "est {est:?} vs truth {truth:?}"
        );
        assert!((est.1 - truth.1).abs() / truth.1 < 0.3);
    }

    #[test]
    fn infeasible_pairs_stay_infeasible() {
        let oracle = Oracle::new();
        let mut bridge = EstimatorBridge::new(&oracle, 1);
        let big = (JobId(1), JobConfig::new(ModelFamily::Recoder, 8192));
        let r50 = (JobId(2), JobConfig::new(ModelFamily::ResNet50, 64));
        bridge.register(&oracle, big.0, big.1);
        bridge.register(&oracle, r50.0, r50.1);
        assert!(bridge
            .pair_throughput(&oracle, big, r50, GpuKind::P100)
            .is_none());
    }

    #[test]
    fn refinement_converges_to_truth() {
        let oracle = Oracle::new();
        let mut bridge = EstimatorBridge::new(&oracle, 2);
        let a = (JobId(5), JobConfig::new(ModelFamily::CycleGan, 1));
        let b = (JobId(6), JobConfig::new(ModelFamily::Lstm, 20));
        bridge.register(&oracle, a.0, a.1);
        bridge.register(&oracle, b.0, b.1);
        for _ in 0..20 {
            bridge.observe(&oracle, a, b, GpuKind::V100);
        }
        let est = bridge
            .pair_throughput(&oracle, a, b, GpuKind::V100)
            .unwrap();
        let truth = oracle.colocated(a.1, b.1, GpuKind::V100).unwrap();
        assert!(
            (est.0 - truth.0).abs() / truth.0 < 0.05,
            "refined est {est:?} vs truth {truth:?}"
        );
    }

    #[test]
    fn forget_fully_clears_job_state() {
        let oracle = Oracle::new();
        let mut bridge = EstimatorBridge::new(&oracle, 4);
        let a = (JobId(7), JobConfig::new(ModelFamily::A3C, 4));
        let b = (JobId(8), JobConfig::new(ModelFamily::ResNet18, 16));
        bridge.register(&oracle, a.0, a.1);
        bridge.register(&oracle, b.0, b.1);
        bridge.observe(&oracle, a, b, GpuKind::V100);
        bridge.forget(a.0);
        bridge.take_dirty();
        // a is unmatched now, so the pair has no classes to refine under.
        bridge.observe(&oracle, a, b, GpuKind::V100);
        assert!(bridge.take_dirty().is_empty());

        // Reusing a's JobId starts from a clean registration, listed like
        // any other.
        bridge.register(&oracle, a.0, a.1);
        assert_eq!(bridge.take_dirty(), vec![a.0]);
    }

    #[test]
    fn refine_on_unregistered_job_is_a_noop_that_dirties_nothing() {
        let oracle = Oracle::new();
        let mut bridge = EstimatorBridge::new(&oracle, 5);
        let a = (JobId(1), JobConfig::new(ModelFamily::A3C, 4));
        let b = (JobId(2), JobConfig::new(ModelFamily::ResNet18, 16));
        // Neither job registered: observing a running pair must neither
        // materialize state nor dirty anything.
        bridge.observe(&oracle, a, b, GpuKind::V100);
        assert!(bridge.take_dirty().is_empty());
        // And there is still no estimate, not a guessed one.
        assert_eq!(bridge.pair_throughput(&oracle, a, b, GpuKind::V100), None);
    }

    #[test]
    fn observe_dirties_exactly_the_refined_jobs() {
        let oracle = Oracle::new();
        let mut bridge = EstimatorBridge::new(&oracle, 6);
        let a = (JobId(1), JobConfig::new(ModelFamily::A3C, 4));
        let b = (JobId(2), JobConfig::new(ModelFamily::ResNet18, 16));
        let c = (JobId(3), JobConfig::new(ModelFamily::Lstm, 20));
        bridge.register(&oracle, a.0, a.1);
        bridge.register(&oracle, b.0, b.1);
        bridge.register(&oracle, c.0, c.1);
        assert_eq!(bridge.take_dirty(), vec![a.0, b.0, c.0]);
        bridge.observe(&oracle, a, b, GpuKind::V100);
        assert_eq!(bridge.take_dirty(), vec![a.0, b.0]);
        // The list was drained: nothing is dirty now.
        assert!(bridge.take_dirty().is_empty());
    }

    #[test]
    fn a_forgotten_job_has_no_estimate() {
        let oracle = Oracle::new();
        let mut bridge = EstimatorBridge::new(&oracle, 3);
        let a = (JobId(9), JobConfig::new(ModelFamily::A3C, 4));
        let b = (JobId(10), JobConfig::new(ModelFamily::A3C, 4));
        bridge.register(&oracle, a.0, a.1);
        bridge.register(&oracle, b.0, b.1);
        let pair = |bridge: &EstimatorBridge| bridge.pair_throughput(&oracle, a, b, GpuKind::V100);
        assert!(pair(&bridge).is_some());
        bridge.forget(a.0);
        assert_eq!(pair(&bridge), None);
    }
}
