//! The scheduler-as-a-service core.
//!
//! Gavel's real deployment is a long-running scheduler fielding online
//! job submissions, not a batch trace replayer. This crate extracts the
//! simulator's admit/recompute/advance/complete engine behind a service
//! boundary: [`SchedulerService`] holds the scheduling state (job table,
//! [`SnapshotCache`] — which owns the [`EstimatorBridge`] when pair
//! throughputs are estimated — round scheduler, failure clock) and is
//! driven entirely by an externally-fed [`Command`] stream:
//!
//! - [`Command::Submit`] — admit a job, owned by an optional *entity*
//!   (user/org). Per-entity job books track active counts;
//!   [`ServiceConfig::max_active_per_entity`] turns them into an
//!   admission cap.
//! - [`Command::Complete`] / [`Command::Cancel`] — force a job out of the
//!   schedule at the current time (with/without counting as completed).
//! - [`Command::AdvanceTo`] — move the clock forward, executing §5 rounds
//!   (or Figure 13b fluid steps) while jobs are active.
//! - [`Command::QueryAllocation`] — read the per-job effective
//!   throughputs of the current allocation, without forcing a recompute
//!   (staleness is observable via
//!   [`ServiceStats::max_queries_between_recomputes`]).
//! - [`Command::InjectFailure`] / [`Command::InjectRepair`] — drive the
//!   cluster-health reset events (§3) from outside, on top of the
//!   configured Poisson failure process.
//!
//! # The submission log and deterministic replay
//!
//! Every *accepted* command appends to a [`SubmissionLog`]. The service
//! is deterministic in (config, policy, ordered command stream) — all
//! randomness is seeded, and no decision reads wall-clock time — so
//! [`replay`] of a recorded log reproduces the original run bit-exactly:
//! identical [`SchedulerService::state_fingerprint`], identical
//! [`SimResult`] down to the float bits. Rejected commands never enter
//! the log; their tallies ride in the log header so replayed results
//! report the same [`ServiceStats`]. The log serializes to a text form
//! with `f64`s as IEEE-754 bit patterns ([`SubmissionLog::serialize`] /
//! [`SubmissionLog::parse`]), so persistence round trips are exact.
//!
//! # Durability and crash recovery
//!
//! The service can be wrapped in a [`DurableService`], which makes every
//! accepted command crash-safe via a write-ahead log plus periodic
//! checkpoints:
//!
//! - **WAL** ([`wal`]): each command (and each *rejection*, so tallies
//!   survive) is framed as a length-prefixed, CRC-32-checksummed,
//!   version-tagged record behind a pluggable [`LogSink`]
//!   ([`MemorySink`], [`FileSink`], or the fault-injecting
//!   [`FaultSink`]). The durability contract is apply-then-append: a
//!   command is durable once [`DurableService::apply`] returns, and a
//!   crash mid-write loses at most the single in-flight command.
//! - **Checkpoints** ([`checkpoint`]): every `checkpoint_every` records
//!   the service saves a [`Checkpoint`] — the serialized submission-log
//!   prefix, a config fingerprint, the covered WAL sequence number, and
//!   the live [`SchedulerService::state_fingerprint`] — then compacts
//!   the WAL. The save happens *before* compaction, so a crash between
//!   the two leaves checkpoint-covered records in the WAL; recovery
//!   skips them by sequence number.
//! - **Recovery** ([`recovery`]): [`recover`] parses the checkpoint
//!   (refusing config mismatches and fingerprint divergence), replays
//!   its embedded prefix, then scans the WAL with torn-tail tolerance —
//!   a truncated frame, short body, bad length, checksum mismatch, or
//!   unknown record version at the tail is classified ([`TornTail`]) and
//!   dropped rather than misread, while damage *before* the tail is
//!   refused. The recovered state is always a bit-exact prefix of the
//!   uninterrupted run.
//! - **Crash harness**: [`FaultPlan`] (kill after k appends keeping a
//!   fraction of the last write, corrupt a byte, truncate), derived
//!   deterministically from a seed, drives [`run_until_crash`] — the
//!   crash-matrix tests assert that for *every* crash index across
//!   round-based/fluid/failure/estimated/throttled configs, recovery lands
//!   on the exact durable prefix and resuming the lost suffix converges
//!   bit-for-bit with the uninterrupted run.
//!
//! # Relation to `gavel-sim`
//!
//! The trace simulator is a thin client of this crate: it compiles a
//! trace into `[AdvanceTo(arrival), Submit(job)]*` plus a final drain,
//! and feeds the stream to a `SchedulerService`. Trace-driven semantics
//! (idle fast-forward between arrivals, round quantization, the
//! simulation cap) live in the service's submit/advance handling; the
//! pinned fixed-seed regressions in `gavel-sim` hold them in place. A
//! round runs live jobs only, whatever the recompute cadence, and
//! failures and repairs due during an idle fast-forward take effect at
//! their scheduled times. Each recompute is a new generation to the
//! round scheduler (the generation is the recompute count): a round's
//! priorities divide the allocation in force by the time received under
//! it, and a completion between recomputes forgets the job without
//! touching what the others received.

pub mod checkpoint;
pub mod command;
pub mod config;
pub mod core;
pub mod error;
pub mod estimate;
pub mod metrics;
pub mod recovery;
pub mod snapshot;
pub mod wal;

pub use checkpoint::{
    config_fingerprint, Checkpoint, CheckpointError, CheckpointStore, FileCheckpointStore,
    MemoryCheckpointStore,
};
pub use command::{
    replay, Command, LogParseError, Rejection, RejectionTally, SubmissionLog, LOG_VERSION,
};
pub use config::{FailureConfig, RecomputeCadence, SimConfig};
pub use core::{AllocationView, SchedulerService, ServiceConfig};
pub use error::{InvalidCommand, InvalidReason, ServiceError};
pub use estimate::EstimatorBridge;
pub use metrics::{
    EntityCounters, FirstPolicyFailure, JobOutcome, PolicyFailures, ServiceStats, SimResult,
};
pub use recovery::{
    recover, run_until_crash, CrashOutcome, DurableService, MemoryDurableService, RecoveryError,
    RecoveryReport,
};
pub use snapshot::{SnapshotCache, SnapshotStats, CROSSCHECK_ENV};
pub use wal::{
    scan_wal, FaultPlan, FaultSink, FileSink, KillSpec, LogSink, MemorySink, RecordKind,
    RejectionRecord, TornReason, TornTail, Wal, WalError, WalRecord, WalScan,
};
