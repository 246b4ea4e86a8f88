//! Property tests: replaying a submission log reproduces the live run
//! bit-exactly — same state fingerprint, same [`SimResult`] — under
//! arbitrary interleavings of submit/complete/cancel/advance/query and
//! failure/repair injections, in both round and fluid stepping, with and
//! without a failure model, and with the per-entity admission cap
//! bouncing some submits.

use gavel_core::JobId;
use gavel_policies::MaxMinFairness;
use gavel_service::{replay, Command, SchedulerService, ServiceConfig, SimConfig, SubmissionLog};
use gavel_workloads::{JobConfig, TraceJob};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn small_cluster() -> gavel_core::ClusterSpec {
    gavel_core::ClusterSpec::new(&[
        ("v100", 2, 2, 2.48),
        ("p100", 2, 2, 1.46),
        ("k80", 2, 2, 0.45),
    ])
}

/// Applies `cmd` to `svc` and records it, with the verdict, in `log`.
fn apply(svc: &mut SchedulerService<'_>, log: &mut SubmissionLog, cmd: Command) {
    let outcome = svc.apply(&cmd);
    log.record(&cmd, &outcome);
}

/// Drives a random command interleaving live, recording a log beside the
/// service, then checks that (a) a twin service fed the log's accepted
/// commands lands on the same state fingerprint and
/// (b) [`replay`] of the text-serialized log returns a bit-identical
/// [`SimResult`], rejection tallies and per-entity counters included.
fn run_interleaving(
    ops: &[(usize, usize, usize)],
    failures: bool,
    fluid: bool,
    seed: u64,
) -> Result<(), TestCaseError> {
    let policy = MaxMinFairness::new();
    let all = JobConfig::all();
    let mut cfg = SimConfig::new(small_cluster());
    cfg.seed = seed;
    cfg.ideal_execution = fluid;
    cfg.max_seconds = 2.0e6;
    if failures {
        // Short enough for natural failures to land inside the run.
        cfg = cfg.with_failures(50_000.0, 7200.0);
    }
    let service = ServiceConfig {
        max_active_per_entity: Some(2),
    };
    let round = cfg.round_seconds;

    let mut svc = SchedulerService::new(cfg.clone(), service.clone(), &policy);
    let mut log = SubmissionLog::default();
    let mut next_id = 0u64;
    for &(op, pick, extra) in ops {
        let now = svc.now();
        let cmd = match op {
            // Submits: future arrivals exercise the idle fast-forward,
            // past arrivals the admit-at-now path; entity 3 means "no
            // entity". The cap (2 active per entity) bounces some.
            0 | 1 => {
                let arrival = if extra % 2 == 0 {
                    now + (pick as f64) * 500.0
                } else {
                    now * 0.5
                };
                let job = TraceJob {
                    id: JobId(next_id),
                    config: all[pick % all.len()],
                    arrival_time: arrival,
                    scale_factor: if extra % 5 == 0 { 2 } else { 1 },
                    total_steps: 1000.0 + (pick as f64) * 40_000.0,
                    duration_seconds: 3600.0,
                    weight: 1.0,
                    slo_factor: if extra % 3 == 0 { Some(5.0) } else { None },
                    entity: Some(pick % 4).filter(|&e| e < 3),
                };
                next_id += 1;
                Command::Submit { job }
            }
            2 => Command::AdvanceTo {
                seconds: now + ((pick % 7) + 1) as f64 * round,
            },
            // Complete/cancel aim at an arbitrary past id — often already
            // finished or never admitted, exercising rejections.
            3 | 4 if next_id > 0 => {
                let job = JobId(pick as u64 % next_id);
                if op == 3 {
                    Command::Complete { job }
                } else {
                    Command::Cancel { job }
                }
            }
            5 => Command::QueryAllocation,
            6 => Command::InjectFailure,
            7 => Command::InjectRepair { accel: pick % 4 },
            _ => continue,
        };
        apply(&mut svc, &mut log, cmd);
    }
    let seconds = svc.now() + 20.0 * round;
    apply(&mut svc, &mut log, Command::AdvanceTo { seconds });

    let text = log.serialize();
    let log = SubmissionLog::parse(&text).expect("log round-trips");
    prop_assert_eq!(log.serialize(), text);

    // (a) Twin service, same command stream → same state fingerprint.
    let mut twin = SchedulerService::new(cfg.clone(), service.clone(), &policy);
    for cmd in log.commands() {
        prop_assert!(
            twin.apply(cmd).is_ok(),
            "logged command rejected: {:?}",
            cmd
        );
    }
    prop_assert_eq!(svc.state_fingerprint(), twin.state_fingerprint());

    // (b) Full replay → bit-identical result.
    let live = svc.into_result();
    let replayed = replay(&policy, &cfg, &service, &log).expect("logged commands replay");
    prop_assert_eq!(live.digest(), replayed.digest());
    prop_assert_eq!(&live.service_stats, &replayed.service_stats);
    prop_assert_eq!(live.snapshot_stats, replayed.snapshot_stats);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn replay_is_bit_exact_round_mode(
        ops in prop::collection::vec((0usize..8, 0usize..32, 0usize..16), 1..30),
        seed in 0u64..256,
    ) {
        run_interleaving(&ops, false, false, seed)?;
    }

    #[test]
    fn replay_is_bit_exact_with_failures(
        ops in prop::collection::vec((0usize..8, 0usize..32, 0usize..16), 1..30),
        seed in 0u64..256,
    ) {
        run_interleaving(&ops, true, false, seed)?;
    }

    #[test]
    fn replay_is_bit_exact_fluid_mode(
        ops in prop::collection::vec((0usize..8, 0usize..32, 0usize..16), 1..25),
        seed in 0u64..256,
    ) {
        run_interleaving(&ops, false, true, seed)?;
    }
}
