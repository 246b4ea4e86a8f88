//! Scheduler-as-a-service demo: an online multi-entity session with an
//! admission cap, mid-run allocation queries, a worker-failure injection,
//! and a cancellation — then a bit-exact replay of the recorded
//! submission log.
//!
//! Unlike the `fig*` experiments (which feed the service pre-compiled
//! traces), this drives [`gavel_service::SchedulerService`] through its
//! command interface the way an external client would: jobs stream in
//! from three entities, each capped at two active jobs, and everything
//! the service accepts lands in its replayable [`SubmissionLog`]. The
//! run ends by serializing the log to its text form, parsing it back,
//! and replaying it against a fresh service — panicking unless the
//! replayed [`SimResult`] is bit-identical, counters included.
//!
//! Run: `cargo run --release -p gavel-experiments --bin gavel-exp -- svc_replay`

use crate::{print_table, Scale};
use gavel_policies::MaxMinFairness;
use gavel_service::{replay, SchedulerService, ServiceConfig, SimResult, SubmissionLog};
use gavel_sim::SimConfig;
use gavel_workloads::{assign_entities, cluster_twelve, generate, Oracle, TraceConfig};

fn mix(acc: u64, x: u64) -> u64 {
    (acc.rotate_left(13) ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

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

pub fn run(scale: Scale) {
    let num_jobs = scale.num_jobs(16, 48, 150);
    let lam = scale.pick(4.0, 6.0, 8.0);
    let oracle = Oracle::new();
    let mut jobs = generate(&TraceConfig::continuous_single(lam, num_jobs, 11), &oracle);
    assign_entities(&mut jobs, 3);
    jobs.sort_by(|a, b| {
        a.arrival_time
            .partial_cmp(&b.arrival_time)
            .unwrap()
            .then(a.id.cmp(&b.id))
    });

    let policy = MaxMinFairness::new();
    let cfg = SimConfig::new(cluster_twelve()).with_failures(86_400.0, 3600.0);
    let service = ServiceConfig {
        max_active_per_entity: Some(2),
    };
    let mut svc = SchedulerService::new(cfg.clone(), service.clone(), &policy);

    // Stream the session in: submits bounce when their entity is at the
    // cap; every third arrival is followed by an allocation query, and the
    // midpoint job's admission is preceded by an injected worker failure.
    let mut last_accepted = None;
    for (i, job) in jobs.iter().enumerate() {
        svc.advance_to(job.arrival_time);
        if i == num_jobs / 2 {
            svc.inject_failure().expect("failure model configured");
        }
        let id = job.id;
        if svc.submit(job.clone()).is_ok() {
            last_accepted = Some(id);
        }
        if i % 3 == 2 {
            svc.query_allocation();
        }
    }
    // Cancel the most recent accepted submit (if it is still running).
    if let Some(id) = last_accepted {
        let _ = svc.cancel(id);
    }
    svc.advance_to(cfg.max_seconds);

    let log = SubmissionLog::parse(&svc.log().serialize()).expect("log text round-trips");
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
    let replayed = replay(&policy, &cfg, &service, &log);
    assert_eq!(
        result_fingerprint(&live),
        result_fingerprint(&replayed),
        "replay diverged from the live session"
    );
    assert_eq!(live.service_stats, replayed.service_stats);
    println!(
        "replay: {} logged commands -> bit-identical result (fingerprint {:#018x})",
        log.len(),
        result_fingerprint(&live),
    );
}
