//! Service-level tests: admission caps and per-entity books, command
//! rejection paths, query counters, failure/repair injection, the
//! submission-log text round trip, replay of an interactive session, and
//! the round a failed policy solve is planned from.

use gavel_core::{Allocation, JobId, Policy, PolicyError, PolicyInput};
use gavel_policies::{IsolatedSplit, MaxMinFairness};
use gavel_service::EntityCounters;
use gavel_service::{
    recover, replay, Command, DurableService, MemoryCheckpointStore, MemorySink, Rejection,
    SchedulerService, ServiceConfig, ServiceError, SimConfig, SimResult, SubmissionLog,
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

    svc.submit(mk_job(0, 0.0, 1e7, Some(0))).unwrap();
    // Entity 0 is at its cap; the submit bounces and the id stays unused.
    assert_eq!(
        svc.submit(mk_job(1, 0.0, 1e7, Some(0))),
        Err(ServiceError::Rejected(Rejection::EntityCapExceeded))
    );
    // Other entities are unaffected.
    svc.submit(mk_job(2, 0.0, 1e7, Some(1))).unwrap();
    // Completing entity 0's job frees a slot; the bounced id resubmits.
    svc.complete_job(JobId(0)).unwrap();
    svc.submit(mk_job(1, 0.0, 1e7, Some(0))).unwrap();

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

    svc.submit(mk_job(7, 0.0, 1e7, None)).unwrap();
    assert_eq!(
        svc.submit(mk_job(7, 0.0, 1e7, None)),
        Err(ServiceError::Rejected(Rejection::DuplicateJob))
    );
    assert_eq!(
        svc.complete_job(JobId(99)),
        Err(ServiceError::Rejected(Rejection::UnknownJob))
    );
    assert_eq!(
        svc.cancel(JobId(99)),
        Err(ServiceError::Rejected(Rejection::UnknownJob))
    );

    // Cancel is terminal: the outcome reports no completion, and the job
    // can be neither completed nor cancelled again.
    svc.cancel(JobId(7)).unwrap();
    assert_eq!(
        svc.complete_job(JobId(7)),
        Err(ServiceError::Rejected(Rejection::UnknownJob))
    );
    assert_eq!(
        svc.cancel(JobId(7)),
        Err(ServiceError::Rejected(Rejection::UnknownJob))
    );
    // The id stays burned — ids are never reused.
    assert_eq!(
        svc.submit(mk_job(7, 0.0, 1e7, None)),
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
    svc.submit(mk_job(0, 0.0, 1e8, Some(2))).unwrap();
    for _ in 0..3 {
        let view = svc.query_allocation();
        assert_eq!(view.rates, vec![(JobId(0), 0.0)]);
    }
    // The first round recomputes, closing a 3-query gap.
    svc.advance_to(round);
    let view = svc.query_allocation();
    assert_eq!(view.seconds, round);
    assert_eq!(view.rates.len(), 1);
    assert!(view.rates[0].1 > 0.0, "allocated job should have a rate");
    svc.query_allocation();

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
        svc.inject_failure(),
        Err(ServiceError::Rejected(Rejection::NoFailureModel))
    );

    // With a (quiescent) failure model: one injected failure downs exactly
    // one worker, repairable exactly once.
    let cfg = SimConfig::new(small_cluster()).with_failures(1e15, 3600.0);
    let num_types = cfg.cluster.num_types();
    let mut svc = SchedulerService::new(cfg, ServiceConfig::default(), &policy);
    svc.inject_failure().unwrap();
    let repaired: Vec<usize> = (0..num_types)
        .filter(|&j| svc.inject_repair(j).is_ok())
        .collect();
    assert_eq!(repaired.len(), 1, "exactly one type has a downed worker");
    // Everything is healthy again; repairs have nothing to do.
    for j in 0..num_types {
        assert_eq!(
            svc.inject_repair(j),
            Err(ServiceError::Rejected(Rejection::NothingToRepair))
        );
    }
    assert_eq!(
        svc.inject_repair(num_types + 5),
        Err(ServiceError::Rejected(Rejection::NothingToRepair))
    );
}

/// One interactive session exercising every command verb, used by the
/// round-trip and replay tests below.
fn interactive_session<'p>(policy: &'p dyn Policy, cfg: &SimConfig) -> SchedulerService<'p> {
    let service = ServiceConfig {
        max_active_per_entity: Some(2),
    };
    let round = cfg.round_seconds;
    let mut svc = SchedulerService::new(cfg.clone(), service, policy);
    svc.submit(mk_job(0, 0.0, 5e6, Some(0))).unwrap();
    svc.submit(mk_job(1, 0.0, 5e6, Some(0))).unwrap();
    // Bounces on the cap (tallied, not logged).
    let _ = svc.submit(mk_job(2, 0.0, 5e6, Some(0)));
    let mut slo = mk_job(3, 300.0, 5e6, None);
    slo.slo_factor = Some(4.0);
    svc.submit(slo).unwrap();
    svc.advance_to(3.0 * round);
    svc.query_allocation();
    svc.inject_failure().unwrap();
    svc.advance_to(6.0 * round);
    svc.cancel(JobId(1)).unwrap();
    svc.complete_job(JobId(0)).unwrap();
    svc.query_allocation();
    svc.advance_to(40.0 * round);
    svc
}

#[test]
fn log_text_round_trips_exactly() {
    let policy = MaxMinFairness::new();
    let cfg = SimConfig::new(small_cluster()).with_failures(1e15, 3600.0);
    let svc = interactive_session(&policy, &cfg);
    let text = svc.log().serialize();
    let parsed = SubmissionLog::parse(&text).expect("serialized log parses");
    assert_eq!(parsed.len(), svc.log().len());
    assert_eq!(parsed.rejections(), svc.log().rejections());
    // Parse→serialize is the identity on the text form.
    assert_eq!(parsed.serialize(), text);
}

/// On oracle throughputs and on the estimator's, whose seeded profiling
/// draws are state a replay has to reproduce too.
#[test]
fn replay_reproduces_interactive_session() {
    let policy = MaxMinFairness::new();
    let plain = SimConfig::new(small_cluster()).with_failures(1e15, 3600.0);
    for (cfg, estimated) in [(plain.clone(), false), (plain.with_estimated_pairs(), true)] {
        let svc = interactive_session(&policy, &cfg);
        let log = SubmissionLog::parse(&svc.log().serialize()).unwrap();

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
        );
        assert_eq!(result_fingerprint(&live), result_fingerprint(&replayed));
        assert_eq!(live.service_stats, replayed.service_stats);
        assert_eq!(live.snapshot_stats, replayed.snapshot_stats);
        assert_eq!(live.snapshot_stats.bridged_snapshots > 0, estimated);
    }
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
    let apply = |svc: &mut DurableService<'_, _, _>, cmd| svc.apply(&cmd).unwrap().unwrap();

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
    let log = SubmissionLog::parse(&svc.service().log().serialize()).unwrap();
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
    let replayed = replay(&fresh, &cfg, &svc_cfg, &log);
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
        svc.submit(mk_job(0, 0.0, tput * 30.0 * hour, None))
            .unwrap();
        svc.advance_to(10.0 * hour);
        svc.submit(mk_job(1, 10.0 * hour, tput * 30.0 * hour, None))
            .unwrap();
        svc.advance_to(until);
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
    let header = "gavel-submission-log v1\n";
    assert!(SubmissionLog::parse(&format!("{header}frobnicate x=1\n")).is_err());
    assert!(SubmissionLog::parse(&format!("{header}advance t=12.5\n")).is_err());
    assert!(SubmissionLog::parse(&format!("{header}complete\n")).is_err());
    assert!(SubmissionLog::parse(&format!(
        "{header}submit id=0 family=NotAModel batch=32 arrival=0x0 scale=1 steps=0x0 \
         duration=0x0 weight=0x0 slo=- entity=-\n"
    ))
    .is_err());
}
