//! Core types for Gavel, the heterogeneity-aware cluster scheduler.
//!
//! This crate defines the vocabulary shared by every other Gavel crate:
//!
//! - [`JobId`], [`PolicyJob`] — jobs and the per-job snapshot policies see.
//! - [`ClusterSpec`] — accelerator types, counts, servers, and prices.
//! - [`Combo`], [`ComboSet`] — one job or two space-sharing; `X`'s rows.
//! - [`ThroughputTensor`] — the throughput matrix `T` of §3.1, extended with
//!   rows for job combinations (space sharing). Placement sensitivity adds
//!   no columns: whether a distributed job runs consolidated is an argument
//!   of the row it is built from (`gavel_workloads::singleton_row`).
//! - [`Allocation`] — the matrix `X` of §3.1: the fraction of wall-clock
//!   time each combo spends on each accelerator type.
//! - [`Policy`] — the interface every scheduling policy implements.
//!
//! Effective throughput (the central quantity of the paper) is computed by
//! [`Allocation::effective_throughput`]:
//!
//! ```text
//! throughput(m, X) = sum over combos k containing m, accel types j of
//!                    T[k][j].for_job(m) * X[k][j]
//! ```

pub mod alloc;
pub mod cluster;
pub mod combo;
pub mod policy;
pub mod refs;
pub mod tensor;

pub use alloc::{Allocation, ValidityError, CAPACITY_TOLERANCE};
pub use cluster::{AccelIdx, ClusterSpec};
pub use combo::{Combo, ComboSet};
pub use policy::{Policy, PolicyError, PolicyInput, PolicyJob};
pub use refs::{x_equal, x_fastest, x_isolated};
pub use tensor::{tensor_from_job_matrix, PairThroughput, ThroughputTensor};

/// Unique identifier of a job, assigned at submission time and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// Identifier of a submitting entity (a user or organization). Entities
/// own jobs in the scheduler service's per-entity job books and index
/// weights in hierarchical policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityId(pub u32);

impl std::fmt::Display for EntityId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "entity{}", self.0)
    }
}

impl From<usize> for EntityId {
    fn from(v: usize) -> Self {
        EntityId(v as u32)
    }
}

/// Comparison tolerance used when validating allocations and throughputs.
pub const EPSILON: f64 = 1e-6;
