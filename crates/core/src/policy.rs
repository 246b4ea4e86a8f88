//! The policy interface.
//!
//! A policy consumes a snapshot of the active jobs, the combos it may
//! allocate over, the throughput tensor, and the cluster description, and
//! produces an [`Allocation`]. Policies are pure functions of their input;
//! all state (elapsed times, steps remaining) lives in the snapshot, which
//! lets the same policy drive both the simulator and a live cluster.

use crate::alloc::Allocation;
use crate::cluster::ClusterSpec;
use crate::combo::ComboSet;
use crate::tensor::ThroughputTensor;
use crate::JobId;

/// Per-job information available to policies when computing an allocation.
#[derive(Debug, Clone)]
pub struct PolicyJob {
    /// Job identity.
    pub id: JobId,
    /// Fair-share weight (`w_m` in §4.1); 1.0 for unweighted policies.
    pub weight: f64,
    /// Number of workers the job uses at a time (`scale_factor_m`).
    pub scale_factor: u32,
    /// Training iterations left (`num_steps_m`).
    pub steps_remaining: f64,
    /// Wall-clock seconds since the job arrived (`t_m` for finish-time
    /// fairness).
    pub time_elapsed: f64,
    /// Deadline in seconds from now, for SLO policies (`None` = no SLO).
    pub slo_seconds_remaining: Option<f64>,
    /// Arrival sequence number (defines FIFO order; lower = earlier).
    pub arrival_seq: u64,
    /// Entity (organization/team) this job belongs to, for hierarchical
    /// policies.
    pub entity: Option<usize>,
}

impl PolicyJob {
    /// A minimal snapshot with weight 1, scale factor 1 and no SLO —
    /// convenient for tests and examples.
    pub fn simple(id: JobId, steps_remaining: f64) -> Self {
        PolicyJob {
            id,
            weight: 1.0,
            scale_factor: 1,
            steps_remaining,
            time_elapsed: 0.0,
            slo_seconds_remaining: None,
            arrival_seq: id.0,
            entity: None,
        }
    }
}

/// Everything a policy sees when invoked.
#[derive(Debug, Clone, Copy)]
pub struct PolicyInput<'a> {
    /// Active jobs (runnable; one entry per job).
    pub jobs: &'a [PolicyJob],
    /// Rows the allocation may use. Singleton rows must cover every job;
    /// pair rows are present only when the caller wants space sharing.
    pub combos: &'a ComboSet,
    /// Throughput tensor with rows parallel to `combos`.
    pub tensor: &'a ThroughputTensor,
    /// Cluster description.
    pub cluster: &'a ClusterSpec,
}

impl<'a> PolicyInput<'a> {
    /// The snapshot for `job`.
    pub fn job(&self, job: JobId) -> Option<&PolicyJob> {
        self.jobs.iter().find(|j| j.id == job)
    }
}

/// Errors surfaced by policies.
#[derive(Debug)]
pub enum PolicyError {
    /// The underlying optimization failed.
    Solver(Box<dyn std::error::Error + Send + Sync>),
    /// The input was inconsistent (e.g. combos referencing unknown jobs).
    InvalidInput(String),
    /// No feasible allocation exists (e.g. a job that cannot run on any
    /// accelerator type).
    NoFeasibleAllocation(String),
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyError::Solver(e) => write!(f, "solver failure: {e}"),
            PolicyError::InvalidInput(m) => write!(f, "invalid policy input: {m}"),
            PolicyError::NoFeasibleAllocation(m) => {
                write!(f, "no feasible allocation: {m}")
            }
        }
    }
}

impl std::error::Error for PolicyError {}

/// A cluster scheduling policy: a pure mapping from a cluster/job snapshot
/// to an allocation matrix.
pub trait Policy {
    /// Short identifier used in logs and experiment output.
    fn name(&self) -> &str;

    /// Computes the allocation that optimizes this policy's objective.
    ///
    /// The returned allocation must satisfy the validity constraints of
    /// §3.1 (checked by [`Allocation::validate`]).
    fn compute_allocation(&self, input: &PolicyInput<'_>) -> Result<Allocation, PolicyError>;

    /// Whether the policy can use pair combos in its input (space
    /// sharing) — a capability, not a switch: whether a run space-shares
    /// is the driver's configuration, and the driver scores pairs only
    /// for policies returning true, since pair enumeration is quadratic.
    fn wants_space_sharing(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combo::ComboSet;
    use crate::tensor::PairThroughput;

    struct EqualSplit;

    impl Policy for EqualSplit {
        fn name(&self) -> &str {
            "equal-split"
        }

        fn compute_allocation(&self, input: &PolicyInput<'_>) -> Result<Allocation, PolicyError> {
            let n = input.jobs.len().max(1);
            let mut alloc = Allocation::zeros(input.combos.clone(), input.cluster.num_types());
            for k in 0..input.combos.len() {
                for j in input.cluster.types() {
                    *alloc.get_mut(k, j) = input.cluster.num_workers(j) as f64 / n as f64;
                }
            }
            Ok(alloc)
        }
    }

    #[test]
    fn policy_trait_is_object_safe() {
        let p: Box<dyn Policy> = Box::new(EqualSplit);
        assert_eq!(p.name(), "equal-split");
        assert!(!p.wants_space_sharing());
    }

    #[test]
    fn input_lookup() {
        let jobs = vec![PolicyJob::simple(JobId(3), 100.0)];
        let combos = ComboSet::singletons(&[JobId(3)]);
        let tensor = ThroughputTensor::new(1, vec![vec![PairThroughput::single(1.0)]]);
        let cluster = ClusterSpec::new(&[("x", 1, 1, 0.0)]);
        let input = PolicyInput {
            jobs: &jobs,
            combos: &combos,
            tensor: &tensor,
            cluster: &cluster,
        };
        assert_eq!(input.job(JobId(3)).map(|j| j.id), Some(JobId(3)));
        assert!(input.job(JobId(9)).is_none());
    }
}
