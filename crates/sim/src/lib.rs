//! Discrete-event cluster simulator for Gavel experiments.
//!
//! Re-implements (in Rust) the simulator the paper used for its
//! large-scale evaluation (§7.1): it drives any [`gavel_core::Policy`]
//! through the round-based mechanism of `gavel-sched`, with job arrivals
//! from `gavel-workloads` traces and throughputs from the synthetic
//! oracle.
//!
//! # Architecture: a thin client of the scheduler service
//!
//! The scheduling engine itself lives in `gavel-service`: a
//! command-driven [`gavel_service::SchedulerService`] owning the
//! admit/recompute/advance/complete core, the [`SnapshotCache`] (and in
//! it, for estimated runs, the [`EstimatorBridge`]), and the round
//! scheduler. This crate is the *trace client* of that service:
//!
//! - [`client::compile_trace`] maps a trace to the equivalent command
//!   stream — jobs in arrival order as `[AdvanceTo(arrival),
//!   Submit(job)]` pairs plus a final drain advance;
//! - [`run`] feeds the stream to a fresh service through
//!   [`gavel_service::SchedulerService::apply`] and returns its
//!   [`SimResult`], recording nothing. A caller that wants a record
//!   applies the stream itself: beside a [`gavel_service::SubmissionLog`]
//!   (accepted and failed commands alike), whose [`gavel_service::replay`]
//!   reproduces the run bit-exactly, or through a
//!   [`gavel_service::DurableService`], whose write-ahead log and
//!   checkpoints [`gavel_service::recover`] rebuilds it from.
//!
//! Trace-only semantics (idle fast-forward between arrivals, round
//! quantization of the wake-up, the simulation cap) are part of the
//! service's submit/advance handling;
//! `tests/pinned_regression.rs` pins fixed-seed results for 11 configs
//! (estimated pairs, failures, physical jitter, throttled recomputes
//! included) and additionally asserts log replay reproduces each pinned
//! run.
//!
//! The per-round machinery the service core composes is documented where
//! it lives: the incremental policy-input snapshots (oracle- and
//! estimator-backed alike, holding pair candidates between classes of
//! interchangeable jobs — a configuration under the oracle, one job under
//! the estimator — and scoring the dirty classes once per snapshot, with
//! the bucketed selection re-checked in debug builds against
//! [`gavel_workloads::rank_and_cap`] over the expanded job pairs, the
//! fresh builder's flat ranking) in [`gavel_service::snapshot`], and the
//! round planner in
//! [`gavel_sched::mechanism`]; `gavel-exp fig12_scalability` times both
//! at each job count. [`SnapshotCache`] and [`EstimatorBridge`] are
//! re-exported here for this crate's tests and the experiments.
//!
//! Fidelity knobs reproduce the paper's setups:
//!
//! - **round length** (Figure 13a sweeps 360–2880 s),
//! - **ideal execution** (Figure 13b: apply allocations as fluid rates,
//!   bypassing the mechanism),
//! - **physical mode** (Table 3: checkpoint/restore overhead on worker
//!   changes plus multiplicative throughput jitter),
//! - **space sharing** (`SimConfig::pairs`, the one switch: pair tensors
//!   from the oracle, or — Figure 14, `SimConfig::with_estimated_pairs` —
//!   from the §6 estimator, which profiles every arriving job and refines
//!   online),
//! - **allocation recomputation cadence** (reset events and/or every N
//!   rounds),
//! - **worker failures** (Poisson failures with fixed repair times, both
//!   treated as reset events that take effect when they are due, also
//!   while the cluster is idle).

pub mod client;

pub use client::{compile_trace, run};
pub use gavel_service::{
    EstimatorBridge, FailureConfig, JobOutcome, RecomputeCadence, ServiceStats, SimConfig,
    SimResult, SnapshotCache, SnapshotStats,
};
