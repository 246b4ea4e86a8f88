//! The crash matrix: kill the durable service at *every* append index of
//! a command stream, recover from whatever survived on "disk", and
//! verify the recovered state is bit-identical to an uninterrupted run
//! of the durable prefix — then resume, feed the remainder, and verify
//! the final state is bit-identical to the run that never crashed.
//!
//! The matrix spans round stepping, fluid stepping, Poisson failures,
//! estimated pair throughputs, and failures under a throttled recompute
//! cadence (the stream includes a large idle gap so a crash can land
//! mid-gap, among the cluster events processed inside it), plus an
//! admission cap so rejection records ride the WAL.

use gavel_core::JobId;
use gavel_core::Policy;
use gavel_policies::MaxMinFairness;
use gavel_service::wal::{scan_wal, FaultPlan, KillSpec, Wal};
use gavel_service::{
    config_fingerprint, recover, run_until_crash, Checkpoint, Command, DurableService,
    MemoryCheckpointStore, MemorySink, RecomputeCadence, Rejection, SchedulerService,
    ServiceConfig, ServiceError, SimConfig, SubmissionLog,
};
use gavel_workloads::{JobConfig, ModelFamily, TraceJob};

fn small_cluster() -> gavel_core::ClusterSpec {
    gavel_core::ClusterSpec::new(&[
        ("v100", 2, 2, 2.48),
        ("p100", 2, 2, 1.46),
        ("k80", 2, 2, 0.45),
    ])
}

fn job(id: u64, arrival: f64, entity: Option<usize>) -> TraceJob {
    let families = [ModelFamily::ResNet50, ModelFamily::A3C, ModelFamily::Lstm];
    let family = families[id as usize % families.len()];
    TraceJob {
        id: JobId(id),
        config: JobConfig::new(family, family.batch_sizes()[0]),
        arrival_time: arrival,
        scale_factor: 1,
        total_steps: 8_000.0 + 4_000.0 * id as f64,
        duration_seconds: 3600.0,
        weight: 1.0,
        slo_factor: None,
        entity,
    }
}

/// A fixed command stream exercising every command kind, duplicate and
/// unknown-id rejections, an entity-cap rejection, and a long idle gap
/// (submit far in the future + advance across it) whose failures and
/// repairs are processed during the fast-forward.
fn stream() -> Vec<Command> {
    vec![
        Command::Submit {
            job: job(0, 0.0, Some(0)),
        },
        Command::Submit {
            job: job(1, 400.0, Some(0)),
        },
        Command::Submit {
            job: job(2, 500.0, Some(0)), // entity 0 at cap → rejected
        },
        Command::AdvanceTo { seconds: 1500.0 },
        Command::QueryAllocation,
        Command::Submit {
            job: job(0, 600.0, Some(1)), // duplicate id → rejected
        },
        Command::Complete { job: JobId(0) },
        Command::InjectFailure, // rejected unless a failure model is set
        Command::AdvanceTo { seconds: 5000.0 },
        Command::Cancel { job: JobId(99) }, // unknown → rejected
        Command::Submit {
            job: job(3, 24_000.0, Some(1)), // future arrival → idle gap
        },
        Command::AdvanceTo { seconds: 26_000.0 }, // crosses the idle gap
        Command::QueryAllocation,
        Command::AdvanceTo { seconds: 32_000.0 },
    ]
}

fn configs() -> Vec<(&'static str, SimConfig)> {
    let base = SimConfig::new(small_cluster());
    let mut fluid = base.clone();
    fluid.ideal_execution = true;
    let failures = base.clone().with_failures(20_000.0, 3_600.0);
    let estimated = base.clone().with_estimated_pairs();
    let mut throttled_failures = base.clone().with_failures(20_000.0, 3_600.0);
    throttled_failures.recompute = RecomputeCadence::ThrottledResets(2);
    vec![
        ("round", base),
        ("fluid", fluid),
        ("failures", failures),
        ("estimated", estimated),
        ("throttled_failures", throttled_failures),
    ]
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        max_active_per_entity: Some(2),
    }
}

/// Fingerprint of a fresh (non-durable) service fed the first `n` stream
/// commands.
fn prefix_fingerprint(cfg: &SimConfig, n: usize) -> u64 {
    let policy = MaxMinFairness::new();
    let mut svc = SchedulerService::new(cfg.clone(), service_config(), &policy);
    for cmd in &stream()[..n] {
        let _ = svc.apply(cmd);
    }
    svc.state_fingerprint()
}

/// The crash matrix for one config: for every append index (commands,
/// the stream header, and checkpoint-compaction headers all count),
/// crash there, recover, check the durable prefix, resume, feed the
/// rest, and check the final state — against a run that never crashed.
fn crash_matrix(name: &str, cfg: &SimConfig, checkpoint_every: usize) {
    let policy = MaxMinFairness::new();
    let svc_cfg = service_config();
    let commands = stream();

    // Uninterrupted reference run.
    let mut reference = SchedulerService::new(cfg.clone(), svc_cfg.clone(), &policy);
    for cmd in &commands {
        let _ = reference.apply(cmd);
    }
    let reference_fp = reference.state_fingerprint();
    let reference_result = reference.into_result();

    let mut crashes = 0;
    // Upper bound on appends: one per command + stream header + one
    // compaction header per checkpoint. Indices past the real count
    // simply never fire (no crash) and are skipped.
    let max_appends =
        commands.len() + 2 + commands.len().checked_div(checkpoint_every).unwrap_or(0);
    for kill_at in 0..max_appends {
        let plan = FaultPlan {
            kill: Some(KillSpec {
                after_appends: kill_at,
                // Vary how much of the torn append lands: nothing, a
                // fragment, or almost everything.
                keep_permille: ((kill_at * 311) % 1000) as u16,
            }),
            ..FaultPlan::default()
        };
        let outcome =
            run_until_crash(&policy, cfg, &svc_cfg, &commands, plan, checkpoint_every).unwrap();
        if !outcome.crashed {
            continue;
        }
        crashes += 1;

        let (svc, report) = recover(
            &policy,
            cfg,
            &svc_cfg,
            outcome.checkpoint_bytes.as_deref(),
            &outcome.wal_bytes,
        )
        .unwrap_or_else(|e| panic!("[{name}] kill@{kill_at}: recovery failed: {e}"));

        // The recovered state covers every stream item whose record
        // survived: at least everything acknowledged before the crash,
        // at most one more (a crash inside the checkpoint that follows
        // a successful append loses the acknowledgment, not the record).
        let consumed = report.consumed();
        assert!(
            consumed == outcome.processed || consumed == outcome.processed + 1,
            "[{name}] kill@{kill_at}: consumed {consumed}, acknowledged {}",
            outcome.processed
        );
        assert_eq!(
            svc.state_fingerprint(),
            prefix_fingerprint(cfg, consumed),
            "[{name}] kill@{kill_at}: recovered state differs from a clean \
             run of the durable prefix ({consumed} commands, report {report:?})"
        );

        // Resume and feed the lost suffix: the final state and result
        // must be bit-identical to the run that never crashed.
        let (mut durable, _) = DurableService::resume(
            &policy,
            cfg.clone(),
            svc_cfg.clone(),
            outcome.checkpoint_bytes.as_deref(),
            &outcome.wal_bytes,
            MemorySink::new(),
            MemoryCheckpointStore::new(),
            checkpoint_every,
        )
        .unwrap_or_else(|e| panic!("[{name}] kill@{kill_at}: resume failed: {e}"));
        for cmd in &commands[consumed..] {
            let _ = durable
                .apply(cmd)
                .unwrap_or_else(|e| panic!("[{name}] kill@{kill_at}: append failed: {e}"));
        }
        assert_eq!(
            durable.service().state_fingerprint(),
            reference_fp,
            "[{name}] kill@{kill_at}: resumed run diverged from the uninterrupted one"
        );
        let resumed_result = durable.into_result();
        assert_eq!(
            resumed_result.digest(),
            reference_result.digest(),
            "[{name}] kill@{kill_at}: resumed result diverged"
        );
        assert_eq!(
            resumed_result.service_stats, reference_result.service_stats,
            "[{name}] kill@{kill_at}: service stats diverged (rejection tallies?)"
        );
    }
    assert!(
        crashes >= commands.len(),
        "[{name}] matrix must crash at least once per command (got {crashes})"
    );
}

#[test]
fn crash_matrix_round_mode() {
    let cfgs = configs();
    crash_matrix("round", &cfgs[0].1, 0);
}

#[test]
fn crash_matrix_round_mode_with_checkpoints() {
    let cfgs = configs();
    crash_matrix("round+ckpt", &cfgs[0].1, 4);
}

#[test]
fn crash_matrix_fluid_mode() {
    let cfgs = configs();
    crash_matrix("fluid", &cfgs[1].1, 3);
}

#[test]
fn crash_matrix_with_failures() {
    let cfgs = configs();
    crash_matrix("failures", &cfgs[2].1, 4);
}

#[test]
fn crash_matrix_estimated_pairs() {
    let cfgs = configs();
    crash_matrix("estimated", &cfgs[3].1, 5);
}

#[test]
fn crash_matrix_throttled_failures() {
    let cfgs = configs();
    crash_matrix("throttled_failures", &cfgs[4].1, 3);
}

/// Post-hoc damage corpus: every truncation point and every single-byte
/// corruption of a full WAL image must recover to a valid prefix (or a
/// clean `Err` for a destroyed header) — never panic, never produce a
/// state that is not a clean prefix of the original run.
#[test]
fn damaged_wal_corpus_never_panics() {
    let policy = MaxMinFairness::new();
    let cfgs = configs();
    let cfg = &cfgs[0].1;
    let svc_cfg = service_config();
    // Per-byte coverage over the short prefix (advances stay small so
    // the thousands of replays stay fast); the full stream is covered by
    // the kill matrix and the seeded plans.
    let commands = stream()[..10].to_vec();
    let outcome =
        run_until_crash(&policy, cfg, &svc_cfg, &commands, FaultPlan::default(), 0).unwrap();
    assert!(!outcome.crashed);
    let full = outcome.wal_bytes;

    let prefix_fps: Vec<u64> = (0..=commands.len())
        .map(|n| prefix_fingerprint(cfg, n))
        .collect();
    // A destroyed header / bad magic is refused cleanly (Err), so only
    // successful recoveries need checking.
    let check = |img: &[u8], what: &str| {
        if let Ok((svc, _)) = recover(&policy, cfg, &svc_cfg, None, img) {
            let fp = svc.state_fingerprint();
            assert!(
                prefix_fps.contains(&fp),
                "{what}: recovered state is not a clean prefix of the run"
            );
        }
    };
    for cut in 0..full.len() {
        check(&full[..cut], &format!("truncate at {cut}"));
    }
    for pos in 0..full.len() {
        let mut img = full.clone();
        img[pos] ^= 0x55;
        check(&img, &format!("corrupt byte {pos}"));
    }
}

/// Seed-derived fault plans (the chaos entry point): whatever the plan
/// does to the image, recovery lands on a clean prefix.
#[test]
fn seeded_fault_plans_recover_to_prefixes() {
    let policy = MaxMinFairness::new();
    let cfgs = configs();
    let svc_cfg = service_config();
    let commands = stream();
    for (name, cfg) in &cfgs {
        let prefix_fps: Vec<u64> = (0..=commands.len())
            .map(|n| prefix_fingerprint(cfg, n))
            .collect();
        for seed in 0..60u64 {
            let plan = FaultPlan::from_seed(seed, commands.len() + 2, 4096);
            let outcome = run_until_crash(&policy, cfg, &svc_cfg, &commands, plan, 4).unwrap();
            // A corrupted checkpoint or WAL header is refused (Err),
            // not misread — only successful recoveries need checking.
            if let Ok((svc, report)) = recover(
                &policy,
                cfg,
                &svc_cfg,
                outcome.checkpoint_bytes.as_deref(),
                &outcome.wal_bytes,
            ) {
                let consumed = report.consumed();
                assert_eq!(
                    svc.state_fingerprint(),
                    prefix_fps[consumed],
                    "[{name}] seed {seed}: not a clean prefix"
                );
            }
        }
    }
}

/// A stream for the checkpoint-image tests: accepted submits, entity-cap
/// and duplicate rejections, queries, an accepted and a refused cancel, a
/// failure and its repair (the repairs of types with no downed worker
/// are refused).
fn image_stream() -> Vec<Command> {
    vec![
        Command::Submit {
            job: job(0, 0.0, Some(0)),
        },
        Command::Submit {
            job: job(1, 100.0, Some(0)),
        },
        Command::Submit {
            job: job(2, 200.0, Some(0)), // entity 0 at cap → rejected
        },
        Command::AdvanceTo { seconds: 1500.0 },
        Command::QueryAllocation,
        Command::Submit {
            job: job(0, 1500.0, Some(1)), // duplicate id → rejected
        },
        Command::Submit {
            job: job(4, 1500.0, Some(1)),
        },
        Command::Cancel { job: JobId(4) },
        Command::InjectFailure,
        Command::AdvanceTo { seconds: 3000.0 },
        Command::InjectRepair { accel: 0 },
        Command::InjectRepair { accel: 1 },
        Command::InjectRepair { accel: 2 },
        Command::Complete { job: JobId(0) },
        Command::Cancel { job: JobId(99) }, // unknown → rejected
        Command::AdvanceTo { seconds: 9000.0 },
        Command::QueryAllocation,
    ]
}

/// The checkpoint image of `log` written whole: `Checkpoint::serialize`,
/// checked against the same frame put down by the WAL's writer.
fn whole_image(config_fp: u64, covered_seq: u64, state_fp: u64, log: &SubmissionLog) -> Vec<u8> {
    let ckpt = Checkpoint {
        config_fingerprint: config_fp,
        covered_seq,
        state_fingerprint: state_fp,
        log_text: log.serialize(),
    };
    let payload = format!(
        "{}checkpoint config=0x{config_fp:016x} state=0x{state_fp:016x}\n",
        ckpt.log_text
    );
    let mut wal = Wal::with_seq(MemorySink::new(), covered_seq).unwrap();
    wal.append(payload.as_bytes()).unwrap();
    let image = ckpt.serialize();
    assert_eq!(image, wal.sink().bytes(), "Checkpoint::serialize");
    image
}

type MemoryDurable<'p> = DurableService<'p, MemorySink, MemoryCheckpointStore>;

/// The image `durable`'s store holds must be the whole image of `log`.
fn assert_stored_image(
    durable: &MemoryDurable<'_>,
    log: &SubmissionLog,
    config_fp: u64,
    what: &str,
) {
    let expected = whole_image(
        config_fp,
        durable.wal().next_seq(),
        durable.service().state_fingerprint(),
        log,
    );
    assert!(
        durable.store().bytes() == Some(&expected[..]),
        "{what}: the saved checkpoint image differs from the log's whole image"
    );
}

/// Applies `commands` through `durable`, recording each verdict in
/// `log`, and checks every checkpoint saved on the way, then two taken at
/// the end with nothing appended between them. Returns the verdicts.
fn apply_checking_images(
    durable: &mut MemoryDurable<'_>,
    log: &mut SubmissionLog,
    commands: &[Command],
    config_fp: u64,
    what: &str,
) -> Vec<Result<(), ServiceError>> {
    let mut verdicts = Vec::new();
    for (i, cmd) in commands.iter().enumerate() {
        let verdict = durable.apply(cmd).unwrap();
        log.record(cmd, &verdict);
        verdicts.push(verdict);
        // A compacted WAL holds no record: this command was checkpointed.
        if scan_wal(durable.wal().sink().bytes())
            .unwrap()
            .records
            .is_empty()
        {
            assert_stored_image(durable, log, config_fp, &format!("{what}, command {i}"));
        }
    }
    for k in 0..2 {
        durable.checkpoint_now().unwrap();
        assert_stored_image(durable, log, config_fp, &format!("{what}, final {k}"));
    }
    verdicts
}

#[test]
fn every_checkpoint_image_equals_the_whole_serialized_log() {
    let policy = MaxMinFairness::new();
    let cfg = configs()[2].1.clone(); // Poisson failures: inject-failure is accepted
    let svc_cfg = service_config();
    let config_fp = config_fingerprint(policy.name(), &cfg, &svc_cfg);
    let commands = image_stream();
    for every in [1, 2, 3] {
        let mut durable = DurableService::new(
            &policy,
            cfg.clone(),
            svc_cfg.clone(),
            MemorySink::new(),
            MemoryCheckpointStore::new(),
            every,
        )
        .unwrap();
        let mut log = SubmissionLog::default();
        let what = format!("every {every}");
        let verdicts = apply_checking_images(&mut durable, &mut log, &commands, config_fp, &what);
        // The stream exercised what it is meant to.
        let accepted = |pick: fn(&Command) -> bool| {
            commands
                .iter()
                .zip(&verdicts)
                .any(|(c, v)| pick(c) && v.is_ok())
        };
        assert!(accepted(|c| matches!(c, Command::Submit { .. })));
        assert!(accepted(|c| matches!(c, Command::QueryAllocation)));
        assert!(accepted(|c| matches!(c, Command::Cancel { .. })));
        assert!(accepted(|c| matches!(c, Command::InjectFailure)));
        assert!(accepted(|c| matches!(c, Command::InjectRepair { .. })));
        let refused: Vec<_> = verdicts.iter().filter_map(|v| v.as_ref().err()).collect();
        for rejection in [
            Rejection::EntityCapExceeded,
            Rejection::DuplicateJob,
            Rejection::UnknownJob,
            Rejection::NothingToRepair,
        ] {
            assert!(
                refused.iter().any(|e| e.rejection() == Some(rejection)),
                "no {rejection:?} in the stream"
            );
        }
    }
}

#[test]
fn a_resumed_service_checkpoints_the_whole_serialized_log() {
    let policy = MaxMinFairness::new();
    let cfg = configs()[2].1.clone();
    let svc_cfg = service_config();
    let config_fp = config_fingerprint(policy.name(), &cfg, &svc_cfg);
    let commands = image_stream();
    let every = 3;
    let mut resumed = 0;
    for kill_at in 1..commands.len() + commands.len() / every {
        let plan = FaultPlan {
            kill: Some(KillSpec {
                after_appends: kill_at,
                keep_permille: 500,
            }),
            ..FaultPlan::default()
        };
        let outcome = run_until_crash(&policy, &cfg, &svc_cfg, &commands, plan, every).unwrap();
        if !outcome.crashed {
            continue;
        }
        let (mut durable, report) = DurableService::resume(
            &policy,
            cfg.clone(),
            svc_cfg.clone(),
            outcome.checkpoint_bytes.as_deref(),
            &outcome.wal_bytes,
            MemorySink::new(),
            MemoryCheckpointStore::new(),
            every,
        )
        .unwrap();
        // The log of the recovered prefix, as a fresh service judges it.
        let consumed = report.consumed();
        let mut svc = SchedulerService::new(cfg.clone(), svc_cfg.clone(), &policy);
        let mut log = SubmissionLog::default();
        for cmd in &commands[..consumed] {
            log.record(cmd, &svc.apply(cmd));
        }
        let what = format!("kill@{kill_at}");
        assert_stored_image(&durable, &log, config_fp, &format!("{what}, resume"));
        apply_checking_images(
            &mut durable,
            &mut log,
            &commands[consumed..],
            config_fp,
            &what,
        );
        resumed += 1;
    }
    assert!(resumed >= commands.len() - 1, "resumed {resumed} times");
}
