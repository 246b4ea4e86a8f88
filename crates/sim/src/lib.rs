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
//! - [`Simulator::run`] feeds the stream to a fresh service and returns
//!   its [`SimResult`], recording nothing; [`Simulator::run_logged`] also
//!   records every consumed command, accepted or failed, in a
//!   [`gavel_service::SubmissionLog`], whose [`gavel_service::replay`]
//!   reproduces the run bit-exactly.
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
//! estimator-backed alike, re-scoring one dirty set per snapshot, with
//! the bucketed selection re-checked behind [`CROSSCHECK_ENV`] against
//! [`gavel_workloads::rank_and_cap`], the fresh builder's flat ranking)
//! in [`gavel_service::snapshot`], the round
//! planner in [`gavel_sched::mechanism`], and the gates the `sim` bench
//! holds them to in that bench's header
//! (`crates/experiments/benches/sim.rs`). [`SnapshotCache`] and
//! [`EstimatorBridge`] are re-exported here for this crate's tests and
//! benches.
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

pub use client::{compile_trace, Simulator};
pub use gavel_service::{
    EstimatorBridge, FailureConfig, JobOutcome, RecomputeCadence, ServiceStats, SimConfig,
    SimResult, SnapshotCache, SnapshotStats, CROSSCHECK_ENV,
};

/// Runs `policy` over `trace` under `config` and returns the metrics.
///
/// Convenience wrapper over [`Simulator`].
pub fn run(
    policy: &dyn gavel_core::Policy,
    trace: &[gavel_workloads::TraceJob],
    config: &SimConfig,
) -> SimResult {
    Simulator::new(config.clone()).run(policy, trace)
}
