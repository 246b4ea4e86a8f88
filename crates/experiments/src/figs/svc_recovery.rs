//! Crash-safe durability demo: a trace-driven session runs through the
//! durable service (checksummed WAL + periodic checkpoints), gets killed
//! mid-write at a sweep of injection points, and recovers — every crash
//! lands back on the exact durable prefix, and resuming the lost suffix
//! reproduces the uninterrupted run bit-for-bit.
//!
//! Three phases:
//!
//! 1. **Reference** — the full session, uninterrupted, through a durable
//!    service on file-backed storage (WAL + checkpoint files under
//!    `target/svc_recovery/`), then recovery from those real files; the
//!    run's wall clock per phase (`SimResult::phases`) is printed.
//! 2. **Crash sweep** — the same session killed mid-append at evenly
//!    spaced injection points (torn tails of varying length), each
//!    recovered and resumed; the table reports what survived each crash.
//! 3. **Damage sweep** — seed-derived fault plans (corruption and
//!    truncation on top of kills), and a checkpoint save torn part-way
//!    on file-backed storage, that must always recover to a clean prefix
//!    of the run (or be refused), never panic, never invent state.
//!
//! Run: `cargo run --release -p gavel-experiments --bin gavel-exp -- svc_recovery`

use crate::{print_table, Scale};
use gavel_policies::MaxMinFairness;
use gavel_service::wal::{FaultPlan, KillSpec};
use gavel_service::{
    recover, run_until_crash, CheckpointStore, DurableService, FileCheckpointStore, FileSink,
    MemoryCheckpointStore, MemorySink, SchedulerService, ServiceConfig, WalError,
};
use gavel_sim::{compile_trace, SimConfig};
use gavel_workloads::{assign_entities, cluster_twelve, generate, Oracle, TraceConfig};

/// A file store whose `tear_at`-th save (1-based) lands only the first
/// half of its image, as a crash mid-write would, and then fails; the
/// run stops there.
struct TearingStore {
    inner: FileCheckpointStore,
    saves: usize,
    tear_at: usize,
}

impl CheckpointStore for TearingStore {
    fn save(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        self.saves += 1;
        if self.saves < self.tear_at {
            return self.inner.save(bytes);
        }
        self.inner.save(&bytes[..bytes.len() / 2])?;
        Err(WalError::InjectedCrash)
    }

    fn load(&self) -> Result<Option<Vec<u8>>, WalError> {
        self.inner.load()
    }
}

pub fn run(scale: Scale) {
    let num_jobs = scale.num_jobs(10, 32, 100);
    let lam = scale.pick(4.0, 6.0, 8.0);
    let checkpoint_every = scale.pick(6, 16, 40);
    let kill_points = scale.pick(8, 16, 32);
    let damage_seeds = scale.pick(24u64, 64, 160);

    let oracle = Oracle::new();
    let mut jobs = generate(&TraceConfig::continuous_single(lam, num_jobs, 13), &oracle);
    assign_entities(&mut jobs, 3);
    let policy = MaxMinFairness::new();
    let cfg = SimConfig::new(cluster_twelve()).with_failures(86_400.0, 3600.0);
    let svc_cfg = ServiceConfig {
        max_active_per_entity: Some(2),
    };
    let commands = compile_trace(&jobs, &cfg);

    // Uninterrupted reference run (plain service).
    let mut reference = SchedulerService::new(cfg.clone(), svc_cfg.clone(), &policy);
    for cmd in &commands {
        let _ = reference.apply(cmd);
    }
    let reference_fp = reference.state_fingerprint();

    // Phase 1: the same run through file-backed durability, recovered
    // from the actual files.
    let dir = std::path::Path::new("target").join("svc_recovery");
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    let wal_path = dir.join("service.wal");
    let ckpt_path = dir.join("service.ckpt");
    let mut durable = DurableService::new(
        &policy,
        cfg.clone(),
        svc_cfg.clone(),
        FileSink::create(&wal_path).expect("create WAL file"),
        FileCheckpointStore::new(&ckpt_path),
        checkpoint_every,
    )
    .expect("durable service on files");
    for cmd in &commands {
        let _ = durable.apply(cmd).expect("file WAL append");
    }
    // "Process exit": only the files remain, and where the run's time went.
    let phases = durable.into_result().phases;
    let wal_bytes = std::fs::read(&wal_path).expect("read WAL back");
    let ckpt_bytes = FileCheckpointStore::new(&ckpt_path)
        .load()
        .expect("read checkpoint back");
    let (svc, report) = recover(&policy, &cfg, &svc_cfg, ckpt_bytes.as_deref(), &wal_bytes)
        .expect("file artifacts recover");
    assert_eq!(
        svc.state_fingerprint(),
        reference_fp,
        "file-backed recovery diverged from the uninterrupted run"
    );
    println!(
        "file-backed run: {} commands -> WAL {} B + checkpoint {} B; recovery replayed \
         {} checkpointed + {} WAL records -> bit-identical state {:#018x}",
        commands.len(),
        wal_bytes.len(),
        ckpt_bytes.as_ref().map_or(0, Vec::len),
        report.prefix_commands + report.prefix_rejections,
        report.wal_commands_applied + report.wal_rejections_applied,
        reference_fp,
    );
    println!("file-backed run, wall clock per phase:\n{phases}");

    // Fingerprints of every clean prefix, for crash verification.
    let prefix_fps: Vec<u64> = {
        let mut svc = SchedulerService::new(cfg.clone(), svc_cfg.clone(), &policy);
        let mut fps = vec![svc.state_fingerprint()];
        for cmd in &commands {
            let _ = svc.apply(cmd);
            fps.push(svc.state_fingerprint());
        }
        fps
    };

    // Phase 2: kill sweep. Append index k ≈ command k (plus stream and
    // compaction headers), so spread kills across the whole stream.
    let mut rows: Vec<Vec<String>> = Vec::new();
    let total_appends = commands.len() + 2 + commands.len() / checkpoint_every.max(1);
    for i in 0..kill_points {
        let kill_at = i * total_appends / kill_points;
        let plan = FaultPlan {
            kill: Some(KillSpec {
                after_appends: kill_at,
                keep_permille: ((i * 317) % 1000) as u16,
            }),
            ..FaultPlan::default()
        };
        let outcome = run_until_crash(&policy, &cfg, &svc_cfg, &commands, plan, checkpoint_every)
            .expect("harness runs");
        if !outcome.crashed {
            continue;
        }
        let (svc, report) = recover(
            &policy,
            &cfg,
            &svc_cfg,
            outcome.checkpoint_bytes.as_deref(),
            &outcome.wal_bytes,
        )
        .expect("crashed artifacts recover");
        let consumed = report.consumed();
        assert_eq!(
            svc.state_fingerprint(),
            prefix_fps[consumed],
            "kill@{kill_at}: recovered state is not the durable prefix"
        );

        // Resume, feed the lost suffix, and require bit-exact convergence.
        let (mut resumed, _) = DurableService::resume(
            &policy,
            cfg.clone(),
            svc_cfg.clone(),
            outcome.checkpoint_bytes.as_deref(),
            &outcome.wal_bytes,
            MemorySink::new(),
            MemoryCheckpointStore::new(),
            checkpoint_every,
        )
        .expect("resume after crash");
        for cmd in &commands[consumed..] {
            let _ = resumed.apply(cmd).expect("resumed append");
        }
        assert_eq!(
            resumed.service().state_fingerprint(),
            reference_fp,
            "kill@{kill_at}: resumed run diverged from the uninterrupted one"
        );
        rows.push(vec![
            kill_at.to_string(),
            consumed.to_string(),
            (commands.len() - consumed).to_string(),
            report
                .torn
                .map_or("clean tail".into(), |t| format!("{}", t.reason)),
            if report.checkpoint_used { "yes" } else { "no" }.to_string(),
            "bit-exact".to_string(),
        ]);
    }
    print_table(
        "Crash sweep: kill mid-append, recover, resume (all bit-exact)",
        &[
            "kill@append",
            "durable cmds",
            "lost cmds",
            "tail state",
            "ckpt used",
            "resumed",
        ],
        &rows,
    );

    // Phase 3: seed-derived fault plans (kill / corrupt / truncate).
    let mut recovered_clean = 0usize;
    let mut refused = 0usize;
    for seed in 0..damage_seeds {
        let plan = FaultPlan::from_seed(seed, commands.len() + 2, 1 << 14);
        let outcome = run_until_crash(&policy, &cfg, &svc_cfg, &commands, plan, checkpoint_every)
            .expect("harness runs");
        match recover(
            &policy,
            &cfg,
            &svc_cfg,
            outcome.checkpoint_bytes.as_deref(),
            &outcome.wal_bytes,
        ) {
            Ok((svc, report)) => {
                let consumed = report.consumed();
                assert_eq!(
                    svc.state_fingerprint(),
                    prefix_fps[consumed],
                    "seed {seed}: recovery produced a non-prefix state"
                );
                recovered_clean += 1;
            }
            Err(_) => refused += 1, // destroyed header/checkpoint: refused, not misread
        }
    }
    // One torn checkpoint slot: checkpointing every quarter of the stream,
    // the third save lands half its image in the slot it overwrites, and
    // the process dies before compacting the WAL.
    let torn_wal = dir.join("torn.wal");
    let torn_ckpt = dir.join("torn.ckpt");
    let mut torn = DurableService::new(
        &policy,
        cfg.clone(),
        svc_cfg.clone(),
        FileSink::create(&torn_wal).expect("create WAL file"),
        TearingStore {
            inner: FileCheckpointStore::new(&torn_ckpt),
            saves: 0,
            tear_at: 3,
        },
        (commands.len() / 4).max(1),
    )
    .expect("durable service on files");
    let processed = commands
        .iter()
        .take_while(|cmd| torn.apply(cmd).is_ok())
        .count();
    assert!(processed < commands.len(), "the torn save never came");
    drop(torn);
    let ckpt_bytes = FileCheckpointStore::new(&torn_ckpt)
        .load()
        .expect("read checkpoint back");
    let wal_bytes = std::fs::read(&torn_wal).expect("read WAL back");
    match recover(&policy, &cfg, &svc_cfg, ckpt_bytes.as_deref(), &wal_bytes) {
        Ok((svc, report)) => {
            assert_eq!(
                svc.state_fingerprint(),
                prefix_fps[report.consumed()],
                "torn checkpoint slot: recovery produced a non-prefix state"
            );
            recovered_clean += 1;
        }
        Err(_) => refused += 1,
    }
    println!(
        "damage sweep: {damage_seeds} seed-derived fault plans and 1 torn checkpoint slot -> \
         {recovered_clean} recovered to a clean prefix, {refused} refused outright, 0 panics, \
         0 divergent states",
    );
    let _ = std::fs::remove_dir_all(&dir);
}
