//! Crash recovery and replay: checkpoint + WAL suffix → the service that
//! crashed, and a submission log → the run that recorded it.
//!
//! [`recover`] rebuilds a [`SchedulerService`] from the two durable
//! artifacts a crashed run leaves behind — the latest checkpoint (if
//! any) and the WAL byte image — and reports exactly what it did
//! ([`RecoveryReport`]): how many commands came from the checkpoint
//! prefix, how many WAL records were applied on top, and whether a torn
//! or corrupted tail was dropped. The recovered service is bit-identical
//! to the crashed one as of its last durable record: same
//! [`SchedulerService::state_fingerprint`], same eventual
//! [`crate::SimResult`]. [`replay`] does the same for a submission log,
//! through the same replay loop, which refuses a logged command the
//! service rejects on re-application ([`RecoveryError::BadRecord`]).
//!
//! Trust, but verify: recovery refuses a checkpoint whose
//! [`config_fingerprint`] does not match the configuration it was handed
//! ([`RecoveryError::ConfigMismatch`] — replaying a log under a
//! different config silently produces a different run), and refuses a
//! checkpoint whose embedded prefix does not replay to the recorded
//! `state_fingerprint` ([`RecoveryError::StateMismatch`] — the
//! checkpoint is internally inconsistent). Torn WAL *tails* are
//! tolerated and reported; torn WAL *middles* are impossible by
//! construction (the scan stops at the first bad frame), and sequence
//! gaps between the checkpoint and the surviving records are refused
//! ([`RecoveryError::SequenceGap`]).
//!
//! [`DurableService`] packages the write path: every command is applied,
//! its entry's line (a failed command's `reject` line keeps tallies
//! across crashes) is formatted once, into the service's next checkpoint
//! image, and framed to the WAL from there; every `checkpoint_every`
//! commands that image is sealed and saved, which costs only the lines
//! appended since the last checkpoint.

use crate::checkpoint::{
    config_fingerprint, Checkpoint, CheckpointImage, CheckpointStore, MemoryCheckpointStore,
};
use crate::command::{log_header, Command, Entry, SubmissionLog};
use crate::config::SimConfig;
use crate::core::{SchedulerService, ServiceConfig};
use crate::error::ServiceError;
use crate::metrics::{Phase, SimResult};
use crate::wal::{scan_wal, FaultPlan, FaultSink, LogSink, TornTail, Wal, WalError};
use gavel_core::Policy;
use std::time::Instant;

/// Why recovery or replay refused to produce a service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// The WAL image is not a WAL (bad magic / unreadable stream
    /// version) or storage failed.
    Wal(WalError),
    /// The checkpoint image is not one intact checkpoint frame.
    Checkpoint(WalError),
    /// The checkpoint was captured under a different (policy, config)
    /// than recovery was handed.
    ConfigMismatch {
        /// Fingerprint of the configuration recovery was handed.
        expected: u64,
        /// Fingerprint recorded in the checkpoint.
        found: u64,
    },
    /// Replaying the checkpoint's embedded prefix did not land on its
    /// recorded state fingerprint — the checkpoint is inconsistent.
    StateMismatch {
        /// Fingerprint the checkpoint recorded at capture.
        expected: u64,
        /// Fingerprint the replayed prefix actually produced.
        recovered: u64,
    },
    /// A surviving WAL record's sequence number skips ahead of the
    /// record stream recovery expected — an intact-looking record is
    /// missing in the middle, so everything after it is untrustworthy.
    SequenceGap {
        /// Sequence number recovery expected next.
        expected: u64,
        /// Sequence number the record actually carried.
        found: u64,
    },
    /// A CRC-valid record that does not parse, or a logged command the
    /// service rejected on re-application — a logged command is by
    /// construction one the service accepted, so the record stream lies.
    BadRecord {
        /// Where the entry sits: a frame's sequence number, or an entry's
        /// position in a submission log (a checkpoint's embedded prefix,
        /// or the log handed to [`replay`]).
        seq: u64,
        /// What went wrong.
        detail: String,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Wal(e) => write!(f, "recovery: wal: {e}"),
            RecoveryError::Checkpoint(e) => write!(f, "recovery: checkpoint: {e}"),
            RecoveryError::ConfigMismatch { expected, found } => write!(
                f,
                "recovery: checkpoint config fingerprint 0x{found:016x} does not match \
                 the supplied configuration 0x{expected:016x}"
            ),
            RecoveryError::StateMismatch {
                expected,
                recovered,
            } => write!(
                f,
                "recovery: checkpoint prefix replays to 0x{recovered:016x}, \
                 checkpoint recorded 0x{expected:016x}"
            ),
            RecoveryError::SequenceGap { expected, found } => write!(
                f,
                "recovery: WAL record sequence gap (expected {expected}, found {found})"
            ),
            RecoveryError::BadRecord { seq, detail } => {
                write!(f, "recovery: record {seq} unusable: {detail}")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<WalError> for RecoveryError {
    fn from(e: WalError) -> Self {
        RecoveryError::Wal(e)
    }
}

/// What recovery found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a checkpoint was used.
    pub checkpoint_used: bool,
    /// Commands replayed from the checkpoint's embedded prefix.
    pub prefix_commands: usize,
    /// Rejection entries re-tallied from the checkpoint's embedded prefix.
    pub prefix_rejections: usize,
    /// WAL command records applied on top of the prefix.
    pub wal_commands_applied: usize,
    /// WAL rejection records re-tallied on top of the prefix.
    pub wal_rejections_applied: usize,
    /// WAL records skipped because the checkpoint already covered them
    /// (a crash can land between checkpoint save and WAL compaction).
    pub wal_records_skipped: usize,
    /// The damaged tail dropped from the WAL, if any.
    pub torn: Option<TornTail>,
    /// Sequence number the next appended record should carry.
    pub next_seq: u64,
}

impl RecoveryReport {
    /// Entries the recovered service consumed, accepted or failed.
    pub fn consumed(&self) -> usize {
        let prefix = self.prefix_commands + self.prefix_rejections;
        prefix + self.wal_commands_applied + self.wal_rejections_applied
    }
}

/// The one replay loop, behind [`replay`] and both halves of [`recover`]:
/// applies `entries` to `svc` in order, then appends each one's line to
/// `image`, if any. A logged command must be accepted again and a failure
/// is tallied again; the first entry that fails either way, or arrives as
/// an error, stops the loop. Returns the commands applied and the failures tallied.
fn apply_entries(
    svc: &mut SchedulerService<'_>,
    entries: impl IntoIterator<Item = Result<(u64, Entry), RecoveryError>>,
    mut image: Option<&mut CheckpointImage>,
) -> Result<(usize, usize), RecoveryError> {
    let (mut commands, mut failures) = (0, 0);
    for entry in entries {
        let (seq, entry) = entry?;
        match &entry {
            Entry::Accepted(cmd) => {
                svc.apply(cmd).map_err(|e| RecoveryError::BadRecord {
                    seq,
                    detail: format!("logged command rejected on replay: {e}"),
                })?;
                commands += 1;
            }
            Entry::Failed(failure) => {
                svc.record_failure(*failure);
                failures += 1;
            }
        }
        if let Some(image) = image.as_deref_mut() {
            image.push_line(|out| entry.write_line(out));
        }
    }
    Ok((commands, failures))
}

/// Replays a submission log against a fresh service, returning the
/// reconstructed result — bit-identical to the live run that produced the
/// log (same config, same policy). A logged command the fresh service
/// rejects is a [`RecoveryError::BadRecord`] naming its position.
pub fn replay(
    policy: &dyn Policy,
    config: &SimConfig,
    service: &ServiceConfig,
    log: &SubmissionLog,
) -> Result<SimResult, RecoveryError> {
    let mut svc = SchedulerService::new(config.clone(), service.clone(), policy);
    apply_entries(&mut svc, (0..).zip(log.entries()).map(Ok), None)?;
    Ok(svc.into_result())
}

/// Rebuilds the service from `checkpoint_bytes` (the latest saved
/// checkpoint, or `None`) and `wal_bytes` (the WAL image, possibly with
/// a torn tail). Returns the recovered service plus a [`RecoveryReport`]
/// saying how much survived. `policy`, `config` and `service` must be
/// the crashed run's — the checkpoint's config fingerprint enforces it.
pub fn recover<'p>(
    policy: &'p dyn Policy,
    config: &SimConfig,
    service: &ServiceConfig,
    checkpoint_bytes: Option<&[u8]>,
    wal_bytes: &[u8],
) -> Result<(SchedulerService<'p>, RecoveryReport), RecoveryError> {
    let (svc, _, report) = recover_logged(policy, config, service, checkpoint_bytes, wal_bytes)?;
    Ok((svc, report))
}

/// [`recover`], also returning the next checkpoint image of every entry
/// the recovered service consumed: the checkpoint's log text as it was
/// saved, then one line per WAL entry.
fn recover_logged<'p>(
    policy: &'p dyn Policy,
    config: &SimConfig,
    service: &ServiceConfig,
    checkpoint_bytes: Option<&[u8]>,
    wal_bytes: &[u8],
) -> Result<(SchedulerService<'p>, CheckpointImage, RecoveryReport), RecoveryError> {
    let mut report = RecoveryReport::default();
    let mut prefix_text = None;
    let mut svc = SchedulerService::new(config.clone(), service.clone(), policy);

    if let Some(bytes) = checkpoint_bytes {
        let ckpt = Checkpoint::parse(bytes).map_err(RecoveryError::Checkpoint)?;
        let expected_fp = config_fingerprint(policy.name(), config, service);
        if ckpt.config_fingerprint != expected_fp {
            return Err(RecoveryError::ConfigMismatch {
                expected: expected_fp,
                found: ckpt.config_fingerprint,
            });
        }
        let prefix =
            SubmissionLog::parse(&ckpt.log_text).map_err(|e| RecoveryError::BadRecord {
                seq: ckpt.covered_seq,
                detail: format!("checkpoint log: {e}"),
            })?;
        (report.prefix_commands, report.prefix_rejections) =
            apply_entries(&mut svc, (0..).zip(prefix.entries()).map(Ok), None)?;
        let recovered_fp = svc.state_fingerprint();
        if recovered_fp != ckpt.state_fingerprint {
            return Err(RecoveryError::StateMismatch {
                expected: ckpt.state_fingerprint,
                recovered: recovered_fp,
            });
        }
        report.checkpoint_used = true;
        report.next_seq = ckpt.covered_seq;
        let mut text = ckpt.log_text;
        if !text.ends_with('\n') {
            // Lines appended after it must start lines of their own.
            text.push('\n');
        }
        prefix_text = Some(text);
    }
    let mut image = CheckpointImage::new(&prefix_text.unwrap_or_else(log_header));

    let scan = scan_wal(wal_bytes)?;
    report.torn = scan.torn;
    let (next_seq, skipped) = (&mut report.next_seq, &mut report.wal_records_skipped);
    let entries = scan.records.iter().filter_map(|record| {
        if record.seq < *next_seq {
            // Covered by the checkpoint: the crash landed between the
            // checkpoint save and the WAL compaction that follows it.
            *skipped += 1;
            return None;
        }
        if record.seq > *next_seq {
            return Some(Err(RecoveryError::SequenceGap {
                expected: *next_seq,
                found: record.seq,
            }));
        }
        *next_seq += 1;
        let entry = Entry::parse(&record.payload).map_err(|e| RecoveryError::BadRecord {
            seq: record.seq,
            detail: e.to_string(),
        });
        Some(entry.map(|entry| (record.seq, entry)))
    });
    (report.wal_commands_applied, report.wal_rejections_applied) =
        apply_entries(&mut svc, entries, Some(&mut image))?;
    Ok((svc, image, report))
}

/// A [`SchedulerService`] wrapped in the durability protocol: every
/// command is applied, then its entry's line is appended to the wrapper's
/// next checkpoint image and framed to the WAL, with that image sealed
/// and saved — and the WAL compacted — every `checkpoint_every` commands.
/// A checkpoint costs the lines appended since the last one, not the
/// history: the image keeps the embedded log text and a running CRC over
/// it from one checkpoint to the next, and rewrites only the fingerprint
/// line and `seq` that end it.
///
/// The write path is *apply-then-append* (a redo log): acceptance is
/// only known after application, so a crash between the two loses
/// exactly the in-flight command. Once [`DurableService::apply`] returns,
/// the command's frame has been handed to the sink: it survives the
/// process crashing, and survives the machine crashing only once the
/// sink has synced — see [`crate::wal`] for exactly what is synced when.
pub struct DurableService<'p, S: LogSink, C: CheckpointStore> {
    svc: SchedulerService<'p>,
    /// The next checkpoint's image: one line per entry the WAL and the
    /// checkpoints hold between them.
    image: CheckpointImage,
    wal: Wal<S>,
    store: C,
    config_fp: u64,
    checkpoint_every: usize,
    since_checkpoint: usize,
}

impl<'p, S: LogSink, C: CheckpointStore> DurableService<'p, S, C> {
    /// A fresh durable service writing through `sink` and checkpointing
    /// into `store` every `checkpoint_every` commands (0 = only on
    /// [`DurableService::checkpoint_now`]).
    pub fn new(
        policy: &'p dyn Policy,
        config: SimConfig,
        service: ServiceConfig,
        sink: S,
        store: C,
        checkpoint_every: usize,
    ) -> Result<Self, WalError> {
        let config_fp = config_fingerprint(policy.name(), &config, &service);
        Ok(DurableService {
            svc: SchedulerService::new(config, service, policy),
            image: CheckpointImage::new(&log_header()),
            wal: Wal::create(sink)?,
            store,
            config_fp,
            checkpoint_every,
            since_checkpoint: 0,
        })
    }

    /// Resumes from a crashed run's durable artifacts: recovers the
    /// service from `checkpoint_bytes` + `wal_bytes`, then immediately
    /// re-checkpoints into `store` and starts a fresh (compacted) WAL on
    /// `sink` — so the torn tail, once dropped, is gone for good and a
    /// second crash recovers from clean artifacts. The new checkpoint
    /// carries the old one's log text byte for byte (its last line ended,
    /// if it was not), then a line per recovered WAL entry.
    #[allow(clippy::too_many_arguments)]
    pub fn resume(
        policy: &'p dyn Policy,
        config: SimConfig,
        service: ServiceConfig,
        checkpoint_bytes: Option<&[u8]>,
        wal_bytes: &[u8],
        sink: S,
        store: C,
        checkpoint_every: usize,
    ) -> Result<(Self, RecoveryReport), RecoveryError> {
        let (svc, image, report) =
            recover_logged(policy, &config, &service, checkpoint_bytes, wal_bytes)?;
        let mut durable = DurableService {
            svc,
            image,
            wal: Wal::with_seq(sink, report.next_seq)?,
            store,
            config_fp: config_fingerprint(policy.name(), &config, &service),
            checkpoint_every,
            since_checkpoint: 0,
        };
        durable.checkpoint_now()?;
        Ok((durable, report))
    }

    /// Applies one command and makes the outcome durable. The outer
    /// `Result` is the durability layer (a WAL append or checkpoint
    /// failure — on `Err` the in-memory state may be ahead of the log,
    /// exactly like a crash at this point); the inner one is the
    /// service's accept/reject verdict.
    pub fn apply(&mut self, cmd: &Command) -> Result<Result<(), ServiceError>, WalError> {
        let outcome = self.svc.apply(cmd);
        let t0 = Instant::now();
        // Logged before the append: a checkpoint's log never lags its state.
        let line = self
            .image
            .push_line(|out| Entry::new(cmd, &outcome).write_line(out));
        self.wal.append(line)?;
        self.svc.tally.phases.lap(Phase::WalAppend, t0);
        self.since_checkpoint += 1;
        if self.checkpoint_every > 0 && self.since_checkpoint >= self.checkpoint_every {
            self.checkpoint_now()?;
        }
        Ok(outcome)
    }

    /// Captures a checkpoint of the current state into the store, then
    /// compacts the WAL and syncs it. Save-before-compact: a crash between
    /// the two only leaves redundant (checkpoint-covered) WAL records,
    /// which recovery skips. The image is sealed in place — its CRC
    /// extended over the lines appended since the last checkpoint — and
    /// handed to the store without a copy; the bytes are those of
    /// [`Checkpoint::serialize`] of the same checkpoint.
    pub fn checkpoint_now(&mut self) -> Result<(), WalError> {
        let t0 = Instant::now();
        let image = self.image.seal(
            self.config_fp,
            self.wal.next_seq(),
            self.svc.state_fingerprint(),
        );
        self.store.save(image)?;
        self.wal.compact()?;
        self.wal.sync()?;
        self.since_checkpoint = 0;
        self.svc.tally.phases.lap(Phase::Checkpoint, t0);
        Ok(())
    }

    /// The wrapped service.
    pub fn service(&self) -> &SchedulerService<'p> {
        &self.svc
    }

    /// The WAL writer (sink access for harnesses).
    pub fn wal(&self) -> &Wal<S> {
        &self.wal
    }

    /// The checkpoint store.
    pub fn store(&self) -> &C {
        &self.store
    }

    /// Finishes the run, returning the result (drops the durability
    /// artifacts — take a final checkpoint first if they should
    /// outlive the process).
    pub fn into_result(self) -> SimResult {
        self.svc.into_result()
    }
}

/// The crash-injection harness used by the chaos tests and the
/// `svc_recovery` experiment: runs a command stream through a
/// [`DurableService`] on a [`FaultSink`], stops at the injected crash
/// (or the end), and returns the durable artifacts a real crash would
/// leave behind.
pub struct CrashOutcome {
    /// Commands fully processed (applied *and* framed) before the crash;
    /// equal to the stream length if the fault never fired.
    pub processed: usize,
    /// The WAL image as the disk saw it (torn tail, corruption and
    /// truncation applied per the fault plan).
    pub wal_bytes: Vec<u8>,
    /// The latest checkpoint saved before the crash, if any.
    pub checkpoint_bytes: Option<Vec<u8>>,
    /// Whether the injected fault actually fired.
    pub crashed: bool,
}

/// Runs `commands` through a durable service with fault injection
/// `plan`, checkpointing every `checkpoint_every` commands. Returns what
/// survives on "disk".
pub fn run_until_crash(
    policy: &dyn Policy,
    config: &SimConfig,
    service: &ServiceConfig,
    commands: &[Command],
    plan: FaultPlan,
    checkpoint_every: usize,
) -> Result<CrashOutcome, WalError> {
    let sink = FaultSink::new(plan);
    let disk = sink.disk();
    let store = MemoryCheckpointStore::new();
    let durable = DurableService::new(
        policy,
        config.clone(),
        service.clone(),
        sink,
        store,
        checkpoint_every,
    );
    let (processed, checkpoint_bytes, crashed) = match durable {
        Ok(mut durable) => {
            let processed = commands
                .iter()
                .take_while(|cmd| durable.apply(cmd).is_ok())
                .count();
            let checkpoint_bytes = durable.store().bytes().map(<[u8]>::to_vec);
            (processed, checkpoint_bytes, durable.wal().sink().crashed())
        }
        // The crash fired on the stream-header append: the "disk" holds
        // a torn header and nothing else.
        Err(WalError::InjectedCrash) => (0, None, true),
        Err(e) => return Err(e),
    };
    Ok(CrashOutcome {
        processed,
        wal_bytes: disk.damaged_bytes(),
        checkpoint_bytes,
        crashed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::tests::assert_same_state;
    use crate::wal::{KillSpec, MemorySink};
    use gavel_core::{ClusterSpec, JobId};
    use gavel_policies::MaxMinFairness;
    use gavel_workloads::{JobConfig, ModelFamily, TraceJob};

    fn small_cluster() -> ClusterSpec {
        ClusterSpec::new(&[
            ("v100", 2, 2, 2.48),
            ("p100", 2, 2, 1.46),
            ("k80", 2, 2, 0.45),
        ])
    }

    fn job(id: u64, arrival: f64) -> TraceJob {
        TraceJob {
            id: JobId(id),
            config: JobConfig::new(ModelFamily::ResNet50, 64),
            arrival_time: arrival,
            scale_factor: 1,
            total_steps: 20_000.0,
            duration_seconds: 3600.0,
            weight: 1.0,
            slo_factor: None,
            entity: Some((id % 2) as usize),
        }
    }

    fn stream() -> Vec<Command> {
        vec![
            Command::Submit { job: job(0, 0.0) },
            Command::Submit { job: job(1, 100.0) },
            Command::AdvanceTo { seconds: 2000.0 },
            Command::QueryAllocation,
            Command::Submit { job: job(1, 150.0) }, // duplicate → rejection record
            Command::Complete { job: JobId(0) },
            Command::AdvanceTo { seconds: 9000.0 },
            Command::Cancel { job: JobId(99) }, // unknown → rejection record
            Command::AdvanceTo { seconds: 40_000.0 },
        ]
    }

    fn fingerprint_of_prefix(
        policy: &MaxMinFairness,
        cfg: &SimConfig,
        svc_cfg: &ServiceConfig,
        commands: &[Command],
    ) -> u64 {
        let mut svc = SchedulerService::new(cfg.clone(), svc_cfg.clone(), policy);
        for cmd in commands {
            let _ = svc.apply(cmd);
        }
        svc.state_fingerprint()
    }

    #[test]
    fn recover_without_checkpoint_matches_prefix_run() {
        let policy = MaxMinFairness::new();
        let cfg = SimConfig::new(small_cluster());
        let svc_cfg = ServiceConfig::default();
        let commands = stream();
        let outcome =
            run_until_crash(&policy, &cfg, &svc_cfg, &commands, FaultPlan::default(), 0).unwrap();
        assert!(!outcome.crashed);
        assert_eq!(outcome.processed, commands.len());
        assert!(outcome.checkpoint_bytes.is_none());
        let (svc, report) = recover(
            &policy,
            &cfg,
            &svc_cfg,
            outcome.checkpoint_bytes.as_deref(),
            &outcome.wal_bytes,
        )
        .unwrap();
        assert!(!report.checkpoint_used);
        assert_eq!(report.wal_commands_applied, 7);
        assert_eq!(report.wal_rejections_applied, 2);
        assert!(report.torn.is_none());
        assert_eq!(
            svc.state_fingerprint(),
            fingerprint_of_prefix(&policy, &cfg, &svc_cfg, &commands),
        );
    }

    #[test]
    fn recover_with_checkpoint_and_suffix() {
        let policy = MaxMinFairness::new();
        let cfg = SimConfig::new(small_cluster());
        let svc_cfg = ServiceConfig::default();
        let commands = stream();
        // Checkpoint every 3 commands: the last checkpoint covers 9, but
        // exercise a prefix < full by crashing via kill on a late append.
        let outcome =
            run_until_crash(&policy, &cfg, &svc_cfg, &commands, FaultPlan::default(), 3).unwrap();
        let (svc, report) = recover(
            &policy,
            &cfg,
            &svc_cfg,
            outcome.checkpoint_bytes.as_deref(),
            &outcome.wal_bytes,
        )
        .unwrap();
        assert!(report.checkpoint_used);
        assert_eq!(
            svc.state_fingerprint(),
            fingerprint_of_prefix(&policy, &cfg, &svc_cfg, &commands),
        );
        // The rejection tallies survived the checkpoint boundary.
        assert_eq!(report.prefix_rejections + report.wal_rejections_applied, 2);
        assert_eq!(svc.into_result().service_stats.commands_rejected, 2);
    }

    #[test]
    fn torn_append_recovers_to_durable_prefix() {
        let policy = MaxMinFairness::new();
        let cfg = SimConfig::new(small_cluster());
        let svc_cfg = ServiceConfig::default();
        let commands = stream();
        // Appends: header is append 0; command k is append k+1. Tear the
        // 5th command's append mid-frame.
        let plan = FaultPlan {
            kill: Some(KillSpec {
                after_appends: 5,
                keep_permille: 400,
            }),
            ..FaultPlan::default()
        };
        let outcome = run_until_crash(&policy, &cfg, &svc_cfg, &commands, plan, 0).unwrap();
        assert!(outcome.crashed);
        assert_eq!(outcome.processed, 4, "crash on the 5th command's append");
        let (svc, report) = recover(
            &policy,
            &cfg,
            &svc_cfg,
            outcome.checkpoint_bytes.as_deref(),
            &outcome.wal_bytes,
        )
        .unwrap();
        let torn = report.torn.expect("tail must be reported torn");
        assert!(torn.dropped_bytes > 0);
        assert_eq!(
            report.wal_commands_applied + report.wal_rejections_applied,
            4
        );
        assert_eq!(
            svc.state_fingerprint(),
            fingerprint_of_prefix(&policy, &cfg, &svc_cfg, &commands[..4]),
        );
    }

    #[test]
    fn config_mismatch_is_refused() {
        let policy = MaxMinFairness::new();
        let cfg = SimConfig::new(small_cluster());
        let svc_cfg = ServiceConfig::default();
        let commands = stream();
        let outcome =
            run_until_crash(&policy, &cfg, &svc_cfg, &commands, FaultPlan::default(), 4).unwrap();
        let mut other = cfg.clone();
        other.round_seconds = 1200.0;
        match recover(
            &policy,
            &other,
            &svc_cfg,
            outcome.checkpoint_bytes.as_deref(),
            &outcome.wal_bytes,
        ) {
            Err(RecoveryError::ConfigMismatch { .. }) => {}
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("mismatched config must be refused"),
        }
    }

    #[test]
    fn a_crash_during_checkpoint_compaction_is_an_injected_crash() {
        let policy = MaxMinFairness::new();
        let cfg = SimConfig::new(small_cluster());
        // Appends: stream header 0, commands 1 and 2, then the checkpoint
        // after command 2 compacts the WAL and rewrites its header: 3.
        let plan = FaultPlan {
            kill: Some(KillSpec {
                after_appends: 3,
                keep_permille: 500,
            }),
            ..FaultPlan::default()
        };
        let sink = FaultSink::new(plan);
        let mut durable = DurableService::new(
            &policy,
            cfg,
            ServiceConfig::default(),
            sink,
            MemoryCheckpointStore::new(),
            2,
        )
        .unwrap();
        let commands = stream();
        assert!(durable.apply(&commands[0]).is_ok());
        assert_eq!(
            durable.apply(&commands[1]).unwrap_err(),
            WalError::InjectedCrash
        );
        assert!(durable.wal().sink().crashed());
    }

    #[test]
    fn resume_ends_the_last_line_of_a_checkpoint_log_that_did_not() {
        let policy = MaxMinFairness::new();
        let cfg = SimConfig::new(small_cluster());
        let svc_cfg = ServiceConfig::default();
        let fresh = SchedulerService::new(cfg.clone(), svc_cfg.clone(), &policy);
        let ckpt = Checkpoint {
            config_fingerprint: config_fingerprint(policy.name(), &cfg, &svc_cfg),
            covered_seq: 0,
            state_fingerprint: fresh.state_fingerprint(),
            log_text: log_header().trim_end().to_string(),
        };
        let (mut durable, _) = DurableService::resume(
            &policy,
            cfg.clone(),
            svc_cfg.clone(),
            Some(&ckpt.serialize()),
            &[],
            MemorySink::new(),
            MemoryCheckpointStore::new(),
            0,
        )
        .unwrap();
        durable.apply(&Command::QueryAllocation).unwrap().unwrap();
        durable.checkpoint_now().unwrap();
        let saved = Checkpoint::parse(durable.store().bytes().unwrap()).unwrap();
        assert_eq!(saved.log_text, format!("{}query\n", log_header()));
        let wal_bytes = durable.wal().sink().bytes();
        let (_, report) =
            recover(&policy, &cfg, &svc_cfg, durable.store().bytes(), wal_bytes).unwrap();
        assert_eq!(report.prefix_commands, 1);
    }

    #[test]
    fn resume_continues_bit_exactly() {
        let policy = MaxMinFairness::new();
        let cfg = SimConfig::new(small_cluster());
        let svc_cfg = ServiceConfig::default();
        let commands = stream();
        // Uninterrupted reference run.
        let reference = fingerprint_of_prefix(&policy, &cfg, &svc_cfg, &commands);
        // Crash after 4 commands, resume, replay the remainder.
        let plan = FaultPlan {
            kill: Some(KillSpec {
                after_appends: 5,
                keep_permille: 0,
            }),
            ..FaultPlan::default()
        };
        let outcome = run_until_crash(&policy, &cfg, &svc_cfg, &commands, plan, 3).unwrap();
        assert!(outcome.crashed);
        let (mut durable, report) = DurableService::resume(
            &policy,
            cfg.clone(),
            svc_cfg.clone(),
            outcome.checkpoint_bytes.as_deref(),
            &outcome.wal_bytes,
            MemorySink::new(),
            MemoryCheckpointStore::new(),
            3,
        )
        .unwrap();
        assert!(report.checkpoint_used);
        // The crash lost exactly the in-flight command: re-apply it and
        // everything after.
        for cmd in &commands[outcome.processed..] {
            durable.apply(cmd).unwrap().ok();
        }
        assert_eq!(durable.service().state_fingerprint(), reference);
        // And the resumed run's own artifacts recover, too.
        let wal_bytes = durable.wal().sink().bytes().to_vec();
        let ckpt_bytes = durable.store().bytes().map(<[u8]>::to_vec);
        let (svc2, _) =
            recover(&policy, &cfg, &svc_cfg, ckpt_bytes.as_deref(), &wal_bytes).unwrap();
        assert_eq!(svc2.state_fingerprint(), reference);
    }

    /// A live durable run with failures, injected repairs and cancels, its
    /// replay, and the same run crashed, recovered and resumed end in equal
    /// states, field by field: more than the state fingerprint samples.
    #[test]
    fn live_replayed_and_resumed_runs_end_in_equal_states() {
        let policy = MaxMinFairness::new();
        let cfg = SimConfig::new(small_cluster()).with_failures(3000.0, 1800.0);
        let svc_cfg = ServiceConfig::default();
        let repairs = || (0..3).map(|accel| Command::InjectRepair { accel });
        let mut commands = vec![
            Command::Submit { job: job(0, 0.0) },
            Command::Submit { job: job(1, 100.0) },
            Command::Submit { job: job(2, 200.0) },
            Command::InjectFailure,
        ];
        commands.extend(repairs());
        commands.extend([
            Command::AdvanceTo { seconds: 2000.0 },
            Command::InjectFailure,
            Command::Cancel { job: JobId(1) },
            Command::QueryAllocation,
            Command::AdvanceTo { seconds: 9000.0 },
            Command::Submit {
                job: job(3, 30_000.0),
            },
            Command::InjectFailure,
        ]);
        commands.extend(repairs());
        commands.push(Command::AdvanceTo { seconds: 31_000.0 });

        let store = MemoryCheckpointStore::new();
        let mut live = DurableService::new(
            &policy,
            cfg.clone(),
            svc_cfg.clone(),
            MemorySink::new(),
            store,
            3,
        )
        .unwrap();
        let (mut log, mut repaired) = (SubmissionLog::default(), 0);
        for cmd in &commands {
            let outcome = live.apply(cmd).unwrap();
            repaired += usize::from(matches!(cmd, Command::InjectRepair { .. }) && outcome.is_ok());
            log.record(cmd, &outcome);
        }
        assert!(repaired >= 2, "{repaired} injected repairs accepted");
        assert_eq!(live.service().num_active(), 1);

        let mut replayed = SchedulerService::new(cfg.clone(), svc_cfg.clone(), &policy);
        apply_entries(&mut replayed, (0..).zip(log.entries()).map(Ok), None).unwrap();
        assert_same_state(live.service(), &replayed);

        let plan = FaultPlan {
            kill: Some(KillSpec {
                after_appends: 10,
                keep_permille: 300,
            }),
            ..FaultPlan::default()
        };
        let outcome = run_until_crash(&policy, &cfg, &svc_cfg, &commands, plan, 3).unwrap();
        assert!(outcome.crashed && outcome.checkpoint_bytes.is_some());
        let (mut resumed, _) = DurableService::resume(
            &policy,
            cfg.clone(),
            svc_cfg.clone(),
            outcome.checkpoint_bytes.as_deref(),
            &outcome.wal_bytes,
            MemorySink::new(),
            MemoryCheckpointStore::new(),
            3,
        )
        .unwrap();
        for cmd in &commands[outcome.processed..] {
            let _verdict = resumed.apply(cmd).unwrap();
        }
        assert_same_state(live.service(), resumed.service());
    }
}
