//! The scheduler-as-a-service core.
//!
//! Gavel's real deployment is a long-running scheduler fielding online
//! job submissions, not a batch trace replayer. This crate extracts the
//! simulator's admit/recompute/advance/complete engine behind a service
//! boundary: [`SchedulerService`] holds the scheduling state (job table,
//! [`SnapshotCache`] — which owns the [`EstimatorBridge`] when pair
//! throughputs are estimated — round scheduler, failure clock) and is
//! driven entirely by an externally-fed [`Command`] stream, every command
//! through its one entry point, [`SchedulerService::apply`]:
//!
//! - [`Command::Submit`] — admit a job, owned by an optional *entity*
//!   (user/org). Per-entity job books track active counts;
//!   [`ServiceConfig::max_active_per_entity`] turns them into an
//!   admission cap.
//! - [`Command::Complete`] / [`Command::Cancel`] — force a job out of the
//!   schedule at the current time (with/without counting as completed).
//! - [`Command::AdvanceTo`] — move the clock forward, executing §5 rounds
//!   (or Figure 13b fluid steps) while jobs are active.
//! - [`Command::QueryAllocation`] — count a served query of the per-job
//!   effective throughputs of the current allocation, which
//!   [`SchedulerService::allocation_view`] then reads, without forcing a
//!   recompute (staleness is observable via
//!   [`ServiceStats::max_queries_between_recomputes`]).
//! - [`Command::InjectFailure`] / [`Command::InjectRepair`] — drive the
//!   cluster-health reset events (§3) from outside, on top of the
//!   configured Poisson failure process.
//!
//! # The submission log and deterministic replay
//!
//! The service keeps no history of what it consumed. A layer that needs
//! one — [`DurableService`], an experiment or a test applying commands
//! beside a log — records
//! every consumed command in a [`SubmissionLog`] with
//! [`SubmissionLog::record`]: an accepted command as itself, a failed one
//! as its `reject` entry, in application order. The service is
//! deterministic in (config, policy, ordered command stream) — all
//! randomness is seeded, and no decision reads wall-clock time — so
//! [`replay`] of a recorded log reproduces the original run bit-exactly:
//! identical [`SchedulerService::state_fingerprint`], identical
//! [`SimResult`] down to the float bits. A `reject` entry is tallied, not
//! re-applied, so replayed results report the same [`ServiceStats`]. The
//! log serializes to a text form with `f64`s as IEEE-754 bit patterns
//! ([`SubmissionLog::serialize`] / [`SubmissionLog::parse`]), one line
//! per entry — the same lines the WAL frames — so persistence round trips
//! are exact.
//!
//! # Durability and crash recovery
//!
//! A [`DurableService`] writes the command stream one way: every record
//! is one line of one grammar ([`command`]), every image one stream of
//! CRC-checked `[len][crc][seq][payload]` frames ([`wal`]).
//!
//! - **WAL** ([`wal`]): one frame per consumed command, holding its log
//!   entry's line (a failed command's `reject` line keeps tallies across
//!   crashes), behind a pluggable [`LogSink`] ([`MemorySink`],
//!   [`FileSink`], or the fault-injecting [`FaultSink`]).
//!   Apply-then-append gives *process*-crash durability: once
//!   [`DurableService::apply`] returns the frame is in the sink. A
//!   [`FileSink`] is synced only after a checkpoint compaction.
//! - **Checkpoints** ([`checkpoint`]): every `checkpoint_every` records
//!   the service saves a [`Checkpoint`] — one frame holding the covered
//!   sequence number, both fingerprints and the submission log it keeps —
//!   then compacts the WAL; a crash between the two leaves covered
//!   records, which recovery skips.
//! - **Recovery** ([`recovery`]): [`recover`] verifies the checkpoint and
//!   replays its prefix, then the WAL's intact frames, dropping a torn
//!   tail ([`TornTail`]) and refusing every other defect; [`replay`]
//!   shares its one replay loop. The recovered state is always a
//!   bit-exact prefix of the uninterrupted run.
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
pub use command::{Command, LogParseError, Rejection, SubmissionLog, LOG_VERSION};
pub use config::{FailureConfig, RecomputeCadence, SimConfig};
pub use core::{AllocationView, SchedulerService, ServiceConfig};
pub use error::{InvalidCommand, InvalidReason, ServiceError};
pub use estimate::EstimatorBridge;
pub use metrics::{
    EntityCounters, FirstPolicyFailure, JobOutcome, Phase, PhaseTimes, PolicyFailures,
    ServiceStats, SimResult,
};
pub use recovery::{
    recover, replay, run_until_crash, CrashOutcome, DurableService, RecoveryError, RecoveryReport,
};
pub use snapshot::{SnapshotCache, SnapshotStats, CROSSCHECK_ENV};
pub use wal::{
    scan_wal, FaultPlan, FaultSink, FileSink, KillSpec, LogSink, MemorySink, TornReason, TornTail,
    Wal, WalError, WalRecord, WalScan,
};
