//! Workloads for Gavel experiments: the Table 2 model zoo, a synthetic
//! throughput oracle, cluster presets, and trace generators.
//!
//! The original evaluation profiled 26 job configurations (7 model families
//! across batch sizes, Table 2) on physical V100/P100/K80 GPUs. Those
//! measurements are not public, so this crate substitutes a *synthetic
//! oracle* whose structure matches every qualitative property the paper
//! reports (see the [`oracle`] module docs): heterogeneous V100:K80
//! speedups from ~2x (A3C) to ~10x (ResNet-50), dollar-normalized
//! crossovers, a colocation contention model reproducing the Figure 15
//! heatmap shape, and a communication-bound distributed-scaling model for
//! placement sensitivity.
//!
//! Everything downstream (policies, mechanism, simulator) consumes only the
//! resulting throughput tensors, so the synthetic substitution preserves
//! the scheduling behaviour under study.

pub mod clusters;
pub mod models;
pub mod oracle;
pub mod tensors;
pub mod trace;

pub use clusters::{
    cluster_physical, cluster_scaled, cluster_simulated, cluster_small, cluster_twelve, GpuKind,
};
pub use models::{JobConfig, ModelFamily};
pub use oracle::Oracle;
pub use tensors::{
    build_singleton_tensor, build_tensor_with_pairs, build_tensor_with_pairs_by, pair_row,
    rank_and_cap, singleton_row, JobSpec, PairOptions,
};
pub use trace::{
    assign_entities, assign_priorities, cost_workload, generate, ArrivalProcess, ScaleFactorMix,
    TraceConfig, TraceJob,
};
