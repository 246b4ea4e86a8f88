//! Service-level tests: admission caps and per-entity books, command
//! rejection paths, query counters, failure/repair injection, the
//! submission-log text round trip, replay of an interactive session,
//! the round a failed policy solve is planned from, and the phase table.

use gavel_core::{Allocation, JobId, Policy, PolicyError, PolicyInput};
use gavel_policies::{IsolatedSplit, MaxMinFairness};
use gavel_service::EntityCounters;
use gavel_service::{
    recover, replay, scan_wal, Command, DurableService, MemoryCheckpointStore, MemorySink, Phase,
    RecoveryError, Rejection, SchedulerService, ServiceConfig, ServiceError, SimConfig, SimResult,
    SubmissionLog, Wal,
};
use gavel_solver::SolverError;
use gavel_workloads::{GpuKind, JobConfig, ModelFamily, Oracle, TraceJob};
use std::cell::{Cell, RefCell};

fn small_cluster() -> gavel_core::ClusterSpec {
    gavel_core::ClusterSpec::new(&[
        ("v100", 2, 2, 2.48),
        ("p100", 2, 2, 1.46),
        ("k80", 2, 2, 0.45),
    ])
}

/// A single-worker ResNet-50 job owned by `entity`.
fn mk_job(id: u64, arrival: f64, steps: f64, entity: Option<usize>) -> TraceJob {
    TraceJob {
        id: JobId(id),
        config: JobConfig::new(ModelFamily::ResNet50, 32),
        arrival_time: arrival,
        scale_factor: 1,
        total_steps: steps,
        duration_seconds: 3600.0,
        weight: 1.0,
        slo_factor: None,
        entity,
    }
}

/// The command that submits `job`.
fn submit(job: TraceJob) -> Command {
    Command::Submit { job }
}

fn mix(acc: u64, x: u64) -> u64 {
    (acc.rotate_left(13) ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Bit-exact fold over everything a [`SimResult`] reports.
fn result_fingerprint(r: &SimResult) -> u64 {
    let mut h = 0u64;
    h = mix(h, r.makespan.to_bits());
    h = mix(h, r.total_cost.to_bits());
    h = mix(h, r.utilization.to_bits());
    h = mix(h, r.rounds as u64);
    h = mix(h, r.recomputations as u64);
    for j in &r.jobs {
        h = mix(h, j.id.0);
        h = mix(h, j.completion.unwrap_or(-1.0).to_bits());
        h = mix(h, j.cost.to_bits());
    }
    h
}

fn counters_for(r: &SimResult, entity: Option<u32>) -> EntityCounters {
    r.service_stats
        .per_entity
        .iter()
        .find(|(e, _)| e.map(|id| id.0) == entity)
        .map(|(_, c)| *c)
        .unwrap_or_default()
}

#[test]
fn entity_cap_rejects_then_frees_on_completion() {
    let policy = MaxMinFairness::new();
    let cfg = SimConfig::new(small_cluster());
    let service = ServiceConfig {
        max_active_per_entity: Some(1),
    };
    let mut svc = SchedulerService::new(cfg, service, &policy);

    svc.apply(&submit(mk_job(0, 0.0, 1e7, Some(0)))).unwrap();
    // Entity 0 is at its cap; the submit bounces and the id stays unused.
    assert_eq!(
        svc.apply(&submit(mk_job(1, 0.0, 1e7, Some(0)))),
        Err(ServiceError::Rejected(Rejection::EntityCapExceeded))
    );
    // Other entities are unaffected.
    svc.apply(&submit(mk_job(2, 0.0, 1e7, Some(1)))).unwrap();
    // Completing entity 0's job frees a slot; the bounced id resubmits.
    svc.apply(&Command::Complete { job: JobId(0) }).unwrap();
    svc.apply(&submit(mk_job(1, 0.0, 1e7, Some(0)))).unwrap();

    let r = svc.into_result();
    assert_eq!(r.service_stats.commands_accepted, 4);
    assert_eq!(r.service_stats.commands_rejected, 1);
    assert_eq!(r.service_stats.admission_cap_rejections, 1);
    let e0 = counters_for(&r, Some(0));
    assert_eq!(e0.submitted, 2);
    assert_eq!(e0.cap_rejected, 1);
    assert_eq!(e0.completed, 1);
    assert_eq!(e0.cancelled, 0);
    let e1 = counters_for(&r, Some(1));
    assert_eq!(e1.submitted, 1);
    assert_eq!(e1.cap_rejected, 0);
}

#[test]
fn duplicate_and_unknown_job_commands_are_rejected() {
    let policy = MaxMinFairness::new();
    let cfg = SimConfig::new(small_cluster());
    let mut svc = SchedulerService::new(cfg, ServiceConfig::default(), &policy);

    svc.apply(&submit(mk_job(7, 0.0, 1e7, None))).unwrap();
    assert_eq!(
        svc.apply(&submit(mk_job(7, 0.0, 1e7, None))),
        Err(ServiceError::Rejected(Rejection::DuplicateJob))
    );
    assert_eq!(
        svc.apply(&Command::Complete { job: JobId(99) }),
        Err(ServiceError::Rejected(Rejection::UnknownJob))
    );
    assert_eq!(
        svc.apply(&Command::Cancel { job: JobId(99) }),
        Err(ServiceError::Rejected(Rejection::UnknownJob))
    );

    // Cancel is terminal: the outcome reports no completion, and the job
    // can be neither completed nor cancelled again.
    svc.apply(&Command::Cancel { job: JobId(7) }).unwrap();
    assert_eq!(
        svc.apply(&Command::Complete { job: JobId(7) }),
        Err(ServiceError::Rejected(Rejection::UnknownJob))
    );
    assert_eq!(
        svc.apply(&Command::Cancel { job: JobId(7) }),
        Err(ServiceError::Rejected(Rejection::UnknownJob))
    );
    // The id stays burned — ids are never reused.
    assert_eq!(
        svc.apply(&submit(mk_job(7, 0.0, 1e7, None))),
        Err(ServiceError::Rejected(Rejection::DuplicateJob))
    );

    let r = svc.into_result();
    assert_eq!(r.jobs.len(), 1);
    assert_eq!(r.jobs[0].completion, None);
    let none = counters_for(&r, None);
    assert_eq!(none.submitted, 1);
    assert_eq!(none.cancelled, 1);
    assert_eq!(r.service_stats.commands_rejected, 6);
    assert_eq!(r.service_stats.admission_cap_rejections, 0);
}

#[test]
fn query_counters_track_recompute_gaps() {
    let policy = MaxMinFairness::new();
    let cfg = SimConfig::new(small_cluster());
    let round = cfg.round_seconds;
    let mut svc = SchedulerService::new(cfg, ServiceConfig::default(), &policy);

    // Before any allocation exists, queries serve all-zero rates.
    svc.apply(&submit(mk_job(0, 0.0, 1e8, Some(2)))).unwrap();
    for _ in 0..3 {
        svc.apply(&Command::QueryAllocation).unwrap();
        assert_eq!(svc.allocation_view().rates, vec![(JobId(0), 0.0)]);
    }
    // The first round recomputes, closing a 3-query gap.
    svc.apply(&Command::AdvanceTo { seconds: round }).unwrap();
    svc.apply(&Command::QueryAllocation).unwrap();
    let view = svc.allocation_view();
    assert_eq!(view.seconds, round);
    assert_eq!(view.rates.len(), 1);
    assert!(view.rates[0].1 > 0.0, "allocated job should have a rate");
    svc.apply(&Command::QueryAllocation).unwrap();

    let r = svc.into_result();
    assert_eq!(r.service_stats.queries_served, 5);
    assert_eq!(r.service_stats.max_queries_between_recomputes, 3);
}

#[test]
fn failure_and_repair_injection_paths() {
    let policy = MaxMinFairness::new();

    // No failure model configured: injection is refused.
    let cfg = SimConfig::new(small_cluster());
    let mut svc = SchedulerService::new(cfg, ServiceConfig::default(), &policy);
    assert_eq!(
        svc.apply(&Command::InjectFailure),
        Err(ServiceError::Rejected(Rejection::NoFailureModel))
    );

    // With a (quiescent) failure model: one injected failure downs exactly
    // one worker, repairable exactly once.
    let cfg = SimConfig::new(small_cluster()).with_failures(1e15, 3600.0);
    let num_types = cfg.cluster.num_types();
    let mut svc = SchedulerService::new(cfg, ServiceConfig::default(), &policy);
    svc.apply(&Command::InjectFailure).unwrap();
    let repaired: Vec<usize> = (0..num_types)
        .filter(|&j| svc.apply(&Command::InjectRepair { accel: j }).is_ok())
        .collect();
    assert_eq!(repaired.len(), 1, "exactly one type has a downed worker");
    // Everything is healthy again; repairs have nothing to do.
    for j in 0..num_types {
        assert_eq!(
            svc.apply(&Command::InjectRepair { accel: j }),
            Err(ServiceError::Rejected(Rejection::NothingToRepair))
        );
    }
    assert_eq!(
        svc.apply(&Command::InjectRepair {
            accel: num_types + 5
        }),
        Err(ServiceError::Rejected(Rejection::NothingToRepair))
    );
}

/// One interactive session exercising every command verb, recorded in a
/// log beside the service; used by the round-trip and replay tests below.
fn interactive_session<'p>(
    policy: &'p dyn Policy,
    cfg: &SimConfig,
) -> (SchedulerService<'p>, SubmissionLog) {
    let service = ServiceConfig {
        max_active_per_entity: Some(2),
    };
    let round = cfg.round_seconds;
    let mut svc = SchedulerService::new(cfg.clone(), service, policy);
    let mut log = SubmissionLog::default();
    let mut apply = |cmd: Command| {
        let outcome = svc.apply(&cmd);
        log.record(&cmd, &outcome);
        outcome
    };
    let advance = |seconds| Command::AdvanceTo { seconds };
    apply(submit(mk_job(0, 0.0, 5e6, Some(0)))).unwrap();
    apply(submit(mk_job(1, 0.0, 5e6, Some(0)))).unwrap();
    // Bounces on the cap (recorded as a `reject` entry).
    apply(submit(mk_job(2, 0.0, 5e6, Some(0)))).unwrap_err();
    let mut slo = mk_job(3, 300.0, 5e6, None);
    slo.slo_factor = Some(4.0);
    apply(submit(slo)).unwrap();
    apply(advance(3.0 * round)).unwrap();
    apply(Command::QueryAllocation).unwrap();
    apply(Command::InjectFailure).unwrap();
    apply(advance(6.0 * round)).unwrap();
    apply(Command::Cancel { job: JobId(1) }).unwrap();
    apply(Command::Complete { job: JobId(0) }).unwrap();
    apply(Command::QueryAllocation).unwrap();
    apply(advance(40.0 * round)).unwrap();
    (svc, log)
}

#[test]
fn log_text_round_trips_exactly() {
    let policy = MaxMinFairness::new();
    let cfg = SimConfig::new(small_cluster()).with_failures(1e15, 3600.0);
    let (_, log) = interactive_session(&policy, &cfg);
    let text = log.serialize();
    assert!(
        text.contains("\nreject kind=entity-cap entity=0\n"),
        "{text}"
    );
    let parsed = SubmissionLog::parse(&text).expect("serialized log parses");
    assert_eq!(parsed.commands().len(), log.commands().len());
    // Parse→serialize is the identity on the text form.
    assert_eq!(parsed.serialize(), text);
}

/// A consumed command leaves one entry, the same one in every record:
/// the WAL's payloads are, line for line, the body of a log recorded
/// beside it — each `reject` kind included — and replaying that log
/// reports the live counters.
#[test]
fn the_wal_and_a_log_recorded_beside_it_hold_the_same_entries() {
    let policy = MaxMinFairness::new();
    let cfg = SimConfig::new(small_cluster());
    let svc_cfg = ServiceConfig {
        max_active_per_entity: Some(1),
    };
    let (sink, store) = (MemorySink::new(), MemoryCheckpointStore::new());
    let mut durable =
        DurableService::new(&policy, cfg.clone(), svc_cfg.clone(), sink, store, 0).unwrap();
    let submit = |id, entity| Command::Submit {
        job: mk_job(id, 0.0, 1e7, entity),
    };
    let mut invalid = mk_job(9, 0.0, 1e7, None);
    invalid.weight = f64::NAN;
    let stream = [
        submit(0, Some(0)),
        submit(0, Some(1)), // duplicate id
        submit(1, Some(0)), // entity cap
        Command::AdvanceTo { seconds: 3600.0 },
        Command::Complete { job: JobId(5) }, // unknown job
        Command::InjectFailure,              // no failure model
        Command::InjectRepair { accel: 0 },  // nothing to repair
        Command::Submit { job: invalid },    // invalid
        Command::QueryAllocation,
        Command::Cancel { job: JobId(0) },
    ];
    let mut log = SubmissionLog::default();
    for cmd in &stream {
        let outcome = durable.apply(cmd).unwrap();
        log.record(cmd, &outcome);
    }

    let text = log.serialize();
    let body: Vec<&str> = text.lines().skip(1).collect();
    let kinds = [
        "duplicate-job",
        "entity-cap",
        "unknown-job",
        "no-failure-model",
        "nothing-to-repair",
        "invalid",
    ];
    for kind in kinds {
        let line = format!("reject kind={kind} ");
        assert!(body.iter().any(|l| l.starts_with(&line)), "{kind}: {text}");
    }
    let scan = scan_wal(durable.wal().sink().bytes()).unwrap();
    let payloads: Vec<&str> = (scan.records.iter())
        .map(|r| std::str::from_utf8(&r.payload).unwrap())
        .collect();
    assert_eq!(payloads, body);

    let live = durable.into_result();
    assert_eq!(live.service_stats.commands_rejected, kinds.len());
    let parsed = SubmissionLog::parse(&text).unwrap();
    let replayed = replay(&policy, &cfg, &svc_cfg, &parsed).unwrap();
    assert_eq!(replayed.service_stats, live.service_stats);
}

/// On oracle throughputs and on the estimator's, whose seeded profiling
/// draws are state a replay has to reproduce too.
#[test]
fn replay_reproduces_interactive_session() {
    let policy = MaxMinFairness::new();
    let plain = SimConfig::new(small_cluster()).with_failures(1e15, 3600.0);
    for (cfg, estimated) in [(plain.clone(), false), (plain.with_estimated_pairs(), true)] {
        let (svc, log) = interactive_session(&policy, &cfg);
        let log = SubmissionLog::parse(&log.serialize()).unwrap();

        // State fingerprints match after applying the same command stream.
        let mut twin = SchedulerService::new(
            cfg.clone(),
            ServiceConfig {
                max_active_per_entity: Some(2),
            },
            &policy,
        );
        for cmd in log.commands() {
            twin.apply(cmd).expect("logged commands replay cleanly");
        }
        assert_eq!(svc.state_fingerprint(), twin.state_fingerprint());

        // And the full result — rejection tallies included — round-trips.
        let live = svc.into_result();
        let replayed = replay(
            &policy,
            &cfg,
            &ServiceConfig {
                max_active_per_entity: Some(2),
            },
            &log,
        )
        .expect("logged commands replay");
        assert_eq!(result_fingerprint(&live), result_fingerprint(&replayed));
        assert_eq!(live.service_stats, replayed.service_stats);
        assert_eq!(live.snapshot_stats, replayed.snapshot_stats);
        assert_eq!(live.snapshot_stats.bridged_snapshots > 0, estimated);
    }
}

/// A well-formed log that submits one id twice, with no `reject` entry
/// between: the fresh service rejects the second submit, so the log does
/// not describe a run. Replay and recovery from a WAL carrying the same
/// lines both refuse it, naming the entry, instead of returning a result
/// whose counters disagree with the log's.
#[test]
fn a_logged_command_rejected_on_replay_is_a_typed_error() {
    let submit = Command::Submit {
        job: mk_job(0, 0.0, 1e6, None),
    }
    .fmt_line();
    let text = format!("gavel-submission-log v3\n{submit}\n{submit}\n");
    let log = SubmissionLog::parse(&text).expect("well-formed log");
    let policy = MaxMinFairness::new();
    let cfg = SimConfig::new(small_cluster());
    let svc_cfg = ServiceConfig::default();
    let refused = |err: RecoveryError| match err {
        RecoveryError::BadRecord { seq: 1, detail } => {
            assert!(detail.contains("duplicate job id"), "{detail}")
        }
        other => panic!("expected entry 1 to be refused, got {other}"),
    };
    refused(replay(&policy, &cfg, &svc_cfg, &log).expect_err("duplicate submit replays"));

    let mut wal = Wal::create(MemorySink::new()).unwrap();
    for _ in 0..2 {
        wal.append(submit.as_bytes()).unwrap();
    }
    let recovered = recover(&policy, &cfg, &svc_cfg, None, wal.sink().bytes());
    refused(
        recovered
            .map(|_| ())
            .expect_err("duplicate submit recovers"),
    );
}

/// Max-min fairness whose every third recompute fails the way a basis
/// collapse in the LP engine now does: with the solver's typed numerical
/// error. The schedule depends on the call count alone, so a fresh
/// instance replays it.
#[derive(Default)]
struct FlakySolver {
    calls: Cell<usize>,
    failures: Cell<usize>,
    /// After a failed recompute: what the isolated split gives each job
    /// of that recompute's input. `None` after one that succeeded.
    fallback_rates: RefCell<Option<Vec<(JobId, f64)>>>,
}

impl Policy for FlakySolver {
    fn name(&self) -> &str {
        "flaky-max-min"
    }

    fn compute_allocation(&self, input: &PolicyInput<'_>) -> Result<Allocation, PolicyError> {
        let call = self.calls.replace(self.calls.get() + 1);
        if call % 3 != 1 {
            self.fallback_rates.replace(None);
            return MaxMinFairness::new().compute_allocation(input);
        }
        self.failures.set(self.failures.get() + 1);
        let isolated = IsolatedSplit::new().compute_allocation(input)?;
        let rate = |id| (id, isolated.effective_throughput(input.tensor, id));
        let rates = input.jobs.iter().map(|job| rate(job.id)).collect();
        self.fallback_rates.replace(Some(rates));
        Err(PolicyError::Solver(Box::new(SolverError::Numerical {
            context: "injected by the test".into(),
        })))
    }
}

#[test]
fn a_failed_solve_is_counted_and_planned_from_the_isolated_split() {
    let cfg = SimConfig::new(small_cluster()).with_failures(1e15, 7200.0);
    let round = cfg.round_seconds;
    let svc_cfg = ServiceConfig::default();
    let policy = FlakySolver::default();
    let mut svc = DurableService::new(
        &policy,
        cfg.clone(),
        svc_cfg.clone(),
        MemorySink::new(),
        MemoryCheckpointStore::new(),
        0,
    )
    .unwrap();
    let mut log = SubmissionLog::default();
    let mut apply = |svc: &mut DurableService<'_, _, _>, cmd| {
        let outcome = svc.apply(&cmd).unwrap();
        log.record(&cmd, &outcome);
        outcome.unwrap()
    };

    // Staggered arrivals and completions plus one worker failure: every
    // one a reset event, so the policy is asked often and fails a third
    // of the time. Planning asserts (debug builds, as here) that each
    // round's assignments name live jobs only and, while the worker is
    // down, fit the reduced capacity.
    let mut fallback_rounds = 0;
    for step in 0..160u64 {
        if step % 4 == 0 && step < 32 {
            let job = mk_job(step / 4, step as f64 * round, 5e4 + 5e3 * step as f64, None);
            apply(&mut svc, Command::Submit { job });
        }
        if step == 6 {
            apply(&mut svc, Command::InjectFailure);
        }
        let seconds = (step + 1) as f64 * round;
        apply(&mut svc, Command::AdvanceTo { seconds });
        // While a failed recompute's allocation stands, the jobs still
        // active are served exactly the isolated split of its input.
        if let Some(expected) = policy.fallback_rates.borrow().as_ref() {
            let served = svc.service().allocation_view().rates;
            fallback_rounds += !served.is_empty() as usize;
            for (id, rate) in served {
                let split = expected.iter().find(|split| split.0 == id).unwrap().1;
                assert_eq!(rate.to_bits(), split.to_bits(), "step {step}, {id}");
                assert!(rate > 0.0, "step {step}, {id}");
            }
        }
    }
    let live_fp = svc.service().state_fingerprint();
    let wal = svc.wal().sink().bytes().to_vec();
    let log = SubmissionLog::parse(&log.serialize()).unwrap();
    let live = svc.into_result();

    assert!(policy.failures.get() >= 4 && fallback_rounds >= 4);
    assert_eq!(live.policy_failures, policy.failures.get());
    // Every failure is attributed to its kind, the first one in full: the
    // policy's second call, at the second job's arrival.
    let kinds = &live.policy_failure_kinds;
    assert_eq!(
        (kinds.total(), kinds.solver),
        (live.policy_failures, live.policy_failures)
    );
    let first = kinds.first.as_ref().unwrap();
    assert_eq!(
        (first.recompute, first.jobs, first.rows),
        (1, 2, 2),
        "{first:?}"
    );
    assert!(first.error.contains("injected by the test"), "{first:?}");
    assert_eq!(live.recomputations, policy.calls.get());
    assert_eq!((live.jobs.len(), live.unfinished_fraction()), (8, 0.0));
    assert!(live.utilization <= 1.0);

    // The failures are part of the deterministic trajectory: replaying the
    // log and recovering from the WAL, each against a fresh policy, land
    // on the same state.
    let fresh = FlakySolver::default();
    let replayed = replay(&fresh, &cfg, &svc_cfg, &log).expect("logged commands replay");
    assert_eq!(result_fingerprint(&replayed), result_fingerprint(&live));
    assert_eq!(replayed.policy_failure_kinds, live.policy_failure_kinds);
    let fresh = FlakySolver::default();
    let (recovered, _) = recover(&fresh, &cfg, &svc_cfg, None, &wal).unwrap();
    assert_eq!(recovered.state_fingerprint(), live_fp);
}

/// §5 delivers the allocation in force, not lifetime parity: a job that
/// had one V100 to itself for 10 hours shares it 0.5 / 0.5 from the round
/// a second job arrives — it is not parked until the newcomer's seconds
/// catch up with its own (which finished it at hour 59.9, not 49.9).
#[test]
fn a_falling_share_does_not_starve_the_job() {
    let price = 3.0;
    let cluster = || gavel_core::ClusterSpec::new(&[("v100", 1, 1, price)]);
    let config = JobConfig::new(ModelFamily::ResNet50, 32);
    let tput = Oracle::new().throughput(config, GpuKind::V100, 1, true);
    let policy = IsolatedSplit::new();
    let hour = 3600.0;
    let session = |until: f64| {
        let cfg = SimConfig::new(cluster());
        let mut svc = SchedulerService::new(cfg, ServiceConfig::default(), &policy);
        svc.apply(&submit(mk_job(0, 0.0, tput * 30.0 * hour, None)))
            .unwrap();
        svc.apply(&Command::AdvanceTo {
            seconds: 10.0 * hour,
        })
        .unwrap();
        svc.apply(&submit(mk_job(1, 10.0 * hour, tput * 30.0 * hour, None)))
            .unwrap();
        svc.apply(&Command::AdvanceTo { seconds: until }).unwrap();
        svc.into_result()
    };

    // Rounds each job ran in the 20 after the arrival, read off its cost:
    // a round on the one worker costs `price / 10`.
    let early = session(12.0 * hour);
    let rounds: Vec<f64> = (early.jobs.iter())
        .map(|j| (j.cost / (price / 10.0)).round())
        .collect();
    assert_eq!(rounds[0] + rounds[1], 120.0, "{rounds:?}");
    assert!(rounds[0] <= 111.0 && rounds[1] <= 11.0, "{rounds:?}");

    let done = session(f64::MAX);
    let completion = |id: usize| done.jobs[id].completion.expect("finished") / hour;
    assert!(completion(0) < 51.0, "job 0 done at hour {}", completion(0));
    assert!(completion(1) < 61.0, "job 1 done at hour {}", completion(1));
}

#[test]
fn parse_rejects_malformed_logs() {
    assert!(SubmissionLog::parse("").is_err());
    assert!(SubmissionLog::parse("not-a-log v9\n").is_err());
    let header = "gavel-submission-log v3\n";
    assert!(SubmissionLog::parse(&format!("{header}frobnicate x=1\n")).is_err());
    assert!(SubmissionLog::parse(&format!("{header}advance t=12.5\n")).is_err());
    assert!(SubmissionLog::parse(&format!("{header}complete\n")).is_err());
    assert!(SubmissionLog::parse(&format!(
        "{header}submit id=0 family=NotAModel batch=32 arrival=0x0 scale=1 steps=0x0 \
         duration=0x0 weight=0x0 slo=- entity=-\n"
    ))
    .is_err());
}

/// The phase table counts what ran: one plan and one execution per
/// round, one snapshot and one policy solve per recompute, one WAL
/// append per consumed command and one checkpoint per save; the
/// recompute timer is the snapshot and policy clocks added up.
#[test]
fn the_phase_table_counts_every_phase_it_clocks() {
    let policy = MaxMinFairness::new();
    let cfg = SimConfig::new(small_cluster());
    let (sink, store) = (MemorySink::new(), MemoryCheckpointStore::new());
    let mut durable =
        DurableService::new(&policy, cfg, ServiceConfig::default(), sink, store, 3).unwrap();
    let stream = [
        submit(mk_job(0, 0.0, 2e4, None)),
        submit(mk_job(1, 0.0, 1e7, None)),
        submit(mk_job(2, 0.0, 1e7, None)),
        Command::AdvanceTo { seconds: 36_000.0 },
        Command::Complete { job: JobId(7) }, // unknown job: still appended
        Command::Cancel { job: JobId(1) },
    ];
    for cmd in &stream {
        durable.apply(cmd).unwrap().ok();
    }
    let r = durable.into_result();
    let p = &r.phases;
    assert!(r.rounds > 0 && r.jobs.iter().any(|j| j.completion.is_some()));
    assert_eq!(p.calls(Phase::Plan), r.rounds as u64);
    assert_eq!(p.calls(Phase::Execute), r.rounds as u64);
    assert!((1..=r.rounds as u64).contains(&p.calls(Phase::Completion)));
    assert_eq!(p.calls(Phase::Snapshot), r.recomputations as u64);
    assert_eq!(p.calls(Phase::Policy), r.recomputations as u64);
    assert_eq!(p.calls(Phase::WalAppend), stream.len() as u64);
    assert_eq!(p.calls(Phase::Checkpoint), 2);
    let recompute_s = p.seconds(Phase::Snapshot) + p.seconds(Phase::Policy);
    assert_eq!(r.policy_solve_seconds, recompute_s);
    assert_eq!(p.to_string().lines().count(), Phase::ALL.len());
}
