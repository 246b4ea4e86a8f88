//! Scheduler-as-a-service demo: an online multi-entity session with an
//! admission cap, mid-run allocation queries, a worker-failure injection,
//! and a cancellation — then a bit-exact replay of the recorded
//! submission log.
//!
//! Unlike the `fig*` experiments (which feed the service pre-compiled
//! traces), this drives [`gavel_service::SchedulerService`] through its
//! command interface the way an external client would: jobs stream in
//! from three entities, each capped at two active jobs, and every
//! command, accepted or bounced, lands in a replayable [`SubmissionLog`]
//! recorded beside the service. The run ends by serializing the log to
//! its text form, parsing it back,
//! and replaying it against a fresh service — panicking unless the
//! replayed [`SimResult`](gavel_service::SimResult) is bit-identical, counters included.
//!
//! Run: `cargo run --release -p gavel-experiments --bin gavel-exp -- svc_replay`

use crate::{print_table, Scale};
use gavel_policies::MaxMinFairness;
use gavel_service::{replay, Command, SchedulerService, ServiceConfig, SubmissionLog};
use gavel_sim::SimConfig;
use gavel_workloads::{assign_entities, cluster_twelve, generate, Oracle, TraceConfig};

pub fn run(scale: Scale) {
    let num_jobs = scale.num_jobs(16, 48, 150);
    let lam = scale.pick(4.0, 6.0, 8.0);
    let oracle = Oracle::new();
    let mut jobs = generate(&TraceConfig::continuous_single(lam, num_jobs, 11), &oracle);
    assign_entities(&mut jobs, 3);
    jobs.sort_by(|a, b| (a.arrival_time.total_cmp(&b.arrival_time)).then(a.id.cmp(&b.id)));

    let policy = MaxMinFairness::new();
    let cfg = SimConfig::new(cluster_twelve()).with_failures(86_400.0, 3600.0);
    let service = ServiceConfig {
        max_active_per_entity: Some(2),
    };
    let mut svc = SchedulerService::new(cfg.clone(), service.clone(), &policy);
    let mut log = SubmissionLog::default();
    let mut apply = |cmd: Command| {
        let outcome = svc.apply(&cmd);
        log.record(&cmd, &outcome);
        outcome
    };

    // Stream the session in: submits bounce when their entity is at the
    // cap; every third arrival is followed by an allocation query, and the
    // midpoint job's admission is preceded by an injected worker failure.
    let mut last_accepted = None;
    for (i, job) in jobs.iter().enumerate() {
        let _ = apply(Command::AdvanceTo {
            seconds: job.arrival_time,
        });
        if i == num_jobs / 2 {
            apply(Command::InjectFailure).expect("failure model configured");
        }
        if apply(Command::Submit { job: job.clone() }).is_ok() {
            last_accepted = Some(job.id);
        }
        if i % 3 == 2 {
            let _ = apply(Command::QueryAllocation);
        }
    }
    // Cancel the most recent accepted submit (if it is still running).
    if let Some(job) = last_accepted {
        let _ = apply(Command::Cancel { job });
    }
    let _ = apply(Command::AdvanceTo {
        seconds: cfg.max_seconds,
    });

    let log = SubmissionLog::parse(&log.serialize()).expect("log text round-trips");
    let live = svc.into_result();

    let stats = &live.service_stats;
    let rows: Vec<Vec<String>> = stats
        .per_entity
        .iter()
        .map(|(entity, c)| {
            vec![
                entity.map_or("-".into(), |e| e.to_string()),
                c.submitted.to_string(),
                c.cap_rejected.to_string(),
                c.completed.to_string(),
                c.cancelled.to_string(),
            ]
        })
        .collect();
    print_table(
        "Scheduler service: per-entity admission books (cap = 2 active)",
        &[
            "entity",
            "submitted",
            "cap-rejected",
            "completed",
            "cancelled",
        ],
        &rows,
    );
    println!(
        "commands: {} accepted, {} rejected ({} by cap); queries: {} \
         (max {} between recomputes); makespan {:.1} h",
        stats.commands_accepted,
        stats.commands_rejected,
        stats.admission_cap_rejections,
        stats.queries_served,
        stats.max_queries_between_recomputes,
        live.makespan / 3600.0,
    );

    // Replay the serialized log against a fresh service: bit-identical or
    // bust.
    let replayed = replay(&policy, &cfg, &service, &log).expect("logged commands replay");
    assert_eq!(
        live.digest(),
        replayed.digest(),
        "replay diverged from the live session"
    );
    assert_eq!(live.service_stats, replayed.service_stats);
    println!(
        "replay: {} logged commands -> bit-identical result (fingerprint {:#018x})",
        log.commands().len(),
        live.digest(),
    );
}
