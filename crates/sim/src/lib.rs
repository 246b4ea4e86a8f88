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
//! admit/recompute/advance/complete core, the [`SnapshotCache`], the
//! [`EstimatorBridge`], and the round scheduler. This crate is the
//! *trace client* of that service:
//!
//! - [`client::compile_trace`] maps a trace to the equivalent command
//!   stream — jobs in arrival order as `[AdvanceTo(arrival),
//!   Submit(job)]` pairs plus a final drain advance;
//! - [`Simulator::run`] feeds the stream to a fresh service and returns
//!   its [`SimResult`]; [`Simulator::run_logged`] also hands back the
//!   service's [`gavel_service::SubmissionLog`], whose
//!   [`gavel_service::replay`] reproduces the run bit-exactly.
//!
//! Trace-only semantics (idle fast-forward between arrivals, round
//! quantization of the wake-up, the simulation cap) are part of the
//! service's submit/advance handling;
//! `tests/pinned_regression.rs` pins fixed-seed results for 11 configs
//! (estimated pairs, failures, physical jitter, throttled recomputes
//! included) and additionally asserts log replay reproduces each pinned
//! run.
//!
//! The per-round machinery the service core composes (and this crate
//! re-exports for its tests and benches):
//!
//! - **Snapshot cache.** [`SnapshotCache`] keeps the
//!   [`gavel_core::ComboSet`], [`gavel_core::ThroughputTensor`], and
//!   [`gavel_core::PolicyJob`] vector alive across recomputes: admission
//!   appends the arriving job's singleton row and O(n) pair-candidate
//!   scores, completion drops the job's rows, and each recompute
//!   assembles a snapshot that is row-for-row bitwise identical to a
//!   fresh `build_tensor_with_pairs` run (proptested) — without the
//!   O(n²) oracle pair sweep. Candidates live in a score-bucketed pair
//!   store (buckets keyed by the score's IEEE-754 prefix, per-job
//!   reverse index for O(degree) completions); selection under the
//!   per-job pair cap walks buckets in descending order and sorts only
//!   the still-contested slots, preserving the flat sort's tie-break
//!   order bit-exactly. The old flat ranking survives as a
//!   differential oracle behind [`CROSSCHECK_ENV`].
//! - **Estimated pairs.** Estimator-backed runs (Figure 14) ride the same
//!   cache with the [`EstimatorBridge`] as the pair source: each
//!   recompute asks the bridge which jobs drifted since the last sync,
//!   unlinks those jobs' candidates and re-scores each of them once
//!   against the resident jobs — O(|dirty| · n) bridge evaluations — and
//!   the snapshot stays bitwise identical to a fresh
//!   `build_tensor_with_pairs_by` run at the bridge's state.
//! - **Round planning.** The incremental `gavel_sched::RoundScheduler`
//!   (candidates resolved once per allocation generation: an unchanged
//!   allocation only re-scores priorities from a dense received-time
//!   slab, with no hashing and no allocation beyond the returned plan).
//!
//! The `sim` bench (`BENCH_sim.json`) tracks the cached-vs-rebuild
//! recompute cost and gates CI on the ≥3x incremental speedup at 1024+
//! jobs, on the estimator-backed cache spending n(n−1)/2 evaluations at
//! population and at most 4·n per drifting snapshot with a ≥2x edge over
//! the estimator-driven rebuild, and on the bucketed selection equalling
//! the flat `rank_and_cap` oracle's at 4096 jobs under churn with zero
//! flat re-ranks on the timed path.
//!
//! Fidelity knobs reproduce the paper's setups:
//!
//! - **round length** (Figure 13a sweeps 360–2880 s),
//! - **ideal execution** (Figure 13b: apply allocations as fluid rates,
//!   bypassing the mechanism),
//! - **physical mode** (Table 3: checkpoint/restore overhead on worker
//!   changes plus multiplicative throughput jitter),
//! - **space sharing** (pair tensors from the oracle, or — Figure 14,
//!   `SimConfig::with_estimated_pairs` — from the §6 estimator, which
//!   profiles every arriving job and refines online),
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
