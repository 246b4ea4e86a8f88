//! # Gavel — heterogeneity-aware cluster scheduling for deep learning
//!
//! A Rust reproduction of *"Heterogeneity-Aware Cluster Scheduling Policies
//! for Deep Learning Workloads"* (Narayanan et al., OSDI 2020): scheduling
//! policies expressed as optimization problems over per-accelerator-type
//! time fractions, realized by a preemptive round-based mechanism.
//!
//! This facade crate re-exports the workspace members:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`core`] | Jobs, clusters, combos, throughput tensors, allocations, the [`core::Policy`] trait |
//! | [`solver`] | From-scratch LP toolkit (revised simplex, prepared LPs, Charnes–Cooper, bisection) |
//! | [`policies`] | All Table 1 policies plus AlloX/Gandiva/Tiresias-style baselines |
//! | [`sched`] | The round-based scheduling mechanism and placement |
//! | [`workloads`] | Table 2 model zoo, synthetic throughput oracle, trace generators |
//! | [`service`] | Command-driven scheduler service: entity job books, submission log, replay |
//! | [`sim`] | Trace-driven simulator client of the service, and metrics |
//! | [`estimator`] | Quasar-style throughput estimator (matrix completion) |
//!
//! # Examples
//!
//! Compute a heterogeneity-aware fair allocation for three jobs on a
//! two-GPU cluster (the worked example of §4.1 of the paper):
//!
//! ```
//! use gavel::core::{tensor_from_job_matrix, ClusterSpec, JobId, Policy, PolicyInput, PolicyJob};
//! use gavel::policies::MaxMinFairness;
//!
//! let cluster = ClusterSpec::new(&[("v100", 1, 1, 2.48), ("k80", 1, 1, 0.45)]);
//! // Throughputs (iterations/s) of three jobs on the two types.
//! let (combos, tensor) = tensor_from_job_matrix(&[
//!     vec![4.0, 1.0],
//!     vec![3.0, 1.0],
//!     vec![2.0, 1.0],
//! ]);
//! let jobs: Vec<PolicyJob> = (0..3)
//!     .map(|m| PolicyJob::simple(JobId(m), 10_000.0))
//!     .collect();
//! let input = PolicyInput {
//!     jobs: &jobs,
//!     combos: &combos,
//!     tensor: &tensor,
//!     cluster: &cluster,
//! };
//! let alloc = MaxMinFairness::new().compute_allocation(&input).unwrap();
//! // Every job ends ~8-10% above the naive 1/3-each split.
//! let t0 = alloc.effective_throughput(&tensor, JobId(0));
//! assert!(t0 > 1.7 && t0 < 1.9, "{t0}");
//! ```

pub use gavel_core as core;
pub use gavel_estimator as estimator;
pub use gavel_policies as policies;
pub use gavel_sched as sched;
pub use gavel_service as service;
pub use gavel_sim as sim;
pub use gavel_solver as solver;
pub use gavel_workloads as workloads;

/// Commonly used items, importable as `use gavel::prelude::*`.
pub mod prelude {
    pub use gavel_core::{
        Allocation, ClusterSpec, Combo, ComboSet, JobId, PairThroughput, Policy, PolicyError,
        PolicyInput, PolicyJob, ThroughputTensor,
    };
    pub use gavel_policies::{
        AgnosticLas, Allox, EntityPolicy, FifoAgnostic, FifoHet, FinishTimeFairness, FtfAgnostic,
        GandivaPolicy, Hierarchical, IsolatedSplit, MaxMinFairness, MaxTotalThroughput, MinCost,
        MinCostSlo, MinMakespan, ShortestJobFirst,
    };
    pub use gavel_sched::{RoundPlan, RoundScheduler};
    pub use gavel_service::{Command, SchedulerService, ServiceConfig, SubmissionLog};
    pub use gavel_sim::{RecomputeCadence, SimConfig, SimResult};
    pub use gavel_workloads::{
        cluster_physical, cluster_simulated, cluster_small, cluster_twelve, generate, GpuKind,
        JobConfig, ModelFamily, Oracle, TraceConfig, TraceJob,
    };
}
