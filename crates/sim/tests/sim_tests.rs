//! End-to-end simulator tests on small clusters and traces.

use gavel_core::Policy;
use gavel_policies::{
    AgnosticLas, FifoAgnostic, FifoHet, GandivaPolicy, MaxMinFairness, MinMakespan,
};
use gavel_sim::{RecomputeCadence, SimConfig, SimResult, Simulator};
use gavel_workloads::{
    cluster_twelve, generate, GpuKind, JobConfig, ModelFamily, Oracle, TraceConfig, TraceJob,
};

/// `gavel_sim::run`, asserting the service accepted every command the
/// trace compiled to.
fn run(policy: &dyn Policy, trace: &[TraceJob], cfg: &SimConfig) -> SimResult {
    let result = gavel_sim::run(policy, trace, cfg);
    assert_eq!(result.service_stats.commands_rejected, 0);
    result
}

fn small_cluster() -> gavel_core::ClusterSpec {
    gavel_core::ClusterSpec::new(&[
        ("v100", 2, 2, 2.48),
        ("p100", 2, 2, 1.46),
        ("k80", 2, 2, 0.45),
    ])
}

fn single_job_trace(duration_s: f64) -> Vec<TraceJob> {
    let oracle = Oracle::new();
    let config = JobConfig::new(ModelFamily::ResNet50, 32);
    let tput = oracle.isolated(config, GpuKind::V100);
    vec![TraceJob {
        id: gavel_core::JobId(0),
        config,
        arrival_time: 0.0,
        scale_factor: 1,
        total_steps: duration_s * tput,
        duration_seconds: duration_s,
        weight: 1.0,
        slo_factor: None,
        entity: None,
    }]
}

#[test]
fn lone_job_finishes_in_ideal_time() {
    let trace = single_job_trace(7200.0);
    let cfg = SimConfig::new(small_cluster());
    let result = run(&MaxMinFairness::new(), &trace, &cfg);
    let jct = result.jobs[0].jct().expect("job completes");
    // One job gets a dedicated V100; JCT is the ideal duration, round-
    // quantized at worst.
    assert!(jct >= 7200.0 - 1.0, "jct {jct}");
    assert!(jct <= 7200.0 + 2.0 * cfg.round_seconds, "jct {jct}");
}

#[test]
fn jct_never_beats_ideal_duration() {
    let oracle = Oracle::new();
    let trace = generate(&TraceConfig::continuous_single(8.0, 30, 5), &oracle);
    let cfg = SimConfig::new(small_cluster());
    let result = run(&MaxMinFairness::new(), &trace, &cfg);
    for o in &result.jobs {
        if let Some(jct) = o.jct() {
            assert!(
                jct >= o.ideal_duration * 0.999,
                "{}: jct {jct} < ideal {}",
                o.id,
                o.ideal_duration
            );
        }
    }
    assert_eq!(result.unfinished_fraction(), 0.0, "all jobs should finish");
}

#[test]
fn het_aware_beats_agnostic_on_avg_jct() {
    let oracle = Oracle::new();
    // Moderate load on the 12-GPU cluster.
    let trace = generate(&TraceConfig::continuous_single(1.2, 60, 7), &oracle);
    let cfg = SimConfig::new(cluster_twelve());
    let het = run(&MaxMinFairness::new(), &trace, &cfg);
    let agn = run(&AgnosticLas::new(), &trace, &cfg);
    let h = het.steady_state_avg_jct_hours(10, 5);
    let a = agn.steady_state_avg_jct_hours(10, 5);
    assert!(
        h < a,
        "heterogeneity-aware avg JCT {h} should beat agnostic {a}"
    );
}

#[test]
fn deterministic_given_seed() {
    let oracle = Oracle::new();
    let trace = generate(&TraceConfig::continuous_single(2.0, 25, 3), &oracle);
    let cfg = SimConfig::new(small_cluster());
    let r1 = run(&MaxMinFairness::new(), &trace, &cfg);
    let r2 = run(&MaxMinFairness::new(), &trace, &cfg);
    assert_eq!(r1.jobs.len(), r2.jobs.len());
    for (a, b) in r1.jobs.iter().zip(&r2.jobs) {
        assert_eq!(a.completion, b.completion, "{}", a.id);
    }
}

/// Figure 13b: the mechanism at 6-minute rounds stays within the gap
/// `fig13_mechanism` asserts (7% of average JCT) of the fluid ideal, also
/// on a contended six-worker cluster where allocations change while jobs
/// queue (+0.8% now; +7.7% while received time outlived the allocation
/// it was received under).
#[test]
fn ideal_execution_close_to_mechanism() {
    let oracle = Oracle::new();
    for (cluster, lambda, seed) in [(cluster_twelve(), 1.5, 11), (small_cluster(), 0.5, 0)] {
        let trace = generate(&TraceConfig::continuous_single(lambda, 40, seed), &oracle);
        let mut cfg = SimConfig::new(cluster);
        let rounds = run(&MaxMinFairness::new(), &trace, &cfg);
        cfg.ideal_execution = true;
        let ideal = run(&MaxMinFairness::new(), &trace, &cfg);
        let rj = rounds.avg_jct_hours();
        let ij = ideal.avg_jct_hours();
        assert!(ij <= rj * 1.05 + 0.2, "ideal {ij} vs rounds {rj}");
        assert!(rj <= ij * 1.07, "rounds {rj} vs ideal {ij}");
    }
}

#[test]
fn physical_fidelity_adds_modest_overhead() {
    let oracle = Oracle::new();
    let trace = generate(&TraceConfig::continuous_single(1.5, 30, 13), &oracle);
    let cfg = SimConfig::new(cluster_twelve());
    let sim = run(&MaxMinFairness::new(), &trace, &cfg);
    let phys_cfg = SimConfig::new(cluster_twelve()).with_physical_fidelity(1);
    let phys = run(&MaxMinFairness::new(), &trace, &phys_cfg);
    let s = sim.avg_jct_hours();
    let p = phys.avg_jct_hours();
    // Table 3: physical and simulated metrics agree within a few percent.
    assert!(
        (p - s).abs() / s < 0.10,
        "physical {p} vs simulated {s} diverge too much"
    );
}

#[test]
fn space_sharing_helps_at_high_load() {
    let oracle = Oracle::new();
    let trace = generate(&TraceConfig::continuous_single(2.5, 50, 17), &oracle);
    let cfg = SimConfig::new(cluster_twelve());
    let plain = run(&MaxMinFairness::new(), &trace, &cfg);
    let ss_cfg = SimConfig::new(cluster_twelve()).with_space_sharing();
    let ss = run(&MaxMinFairness::new(), &trace, &ss_cfg);
    let p = plain.steady_state_avg_jct_hours(5, 5);
    let s = ss.steady_state_avg_jct_hours(5, 5);
    assert!(s <= p * 1.02, "space sharing should not hurt: {s} vs {p}");
}

#[test]
fn profiled_estimation_stays_close_and_uses_the_estimator_entry() {
    // Full §6 loop: arrivals are profiled/fingerprinted and estimates
    // refine online as colocated pairs run. The run must stay close to
    // the oracle-backed result (Figure 14: the estimator costs only a
    // small JCT increase), and every recompute must assemble through the
    // estimator-backed entry, none through `snapshot()`.
    let oracle = Oracle::new();
    let trace = generate(&TraceConfig::continuous_single(2.0, 40, 19), &oracle);
    let base = SimConfig::new(cluster_twelve()).with_space_sharing();
    let oracle_run = run(&MaxMinFairness::new(), &trace, &base);
    let est_cfg = SimConfig::new(cluster_twelve()).with_estimated_pairs();
    let est_run = run(&MaxMinFairness::new(), &trace, &est_cfg);
    let o = oracle_run.avg_jct_hours();
    let e = est_run.avg_jct_hours();
    assert!(
        (e - o) / o < 0.25,
        "profiled estimates {e} vs oracle {o} diverge too much"
    );
    let s = est_run.snapshot_stats;
    assert_eq!(s.bridged_snapshots, est_run.recomputations);
    assert_eq!(s.incremental_snapshots, 0);
    // The oracle-backed run, in turn, never touches the estimator entry.
    let so = oracle_run.snapshot_stats;
    assert_eq!(so.bridged_snapshots, 0);
    assert_eq!(so.incremental_snapshots, oracle_run.recomputations);
}

#[test]
fn makespan_policy_beats_fifo_on_static_trace() {
    let oracle = Oracle::new();
    let trace = generate(&TraceConfig::static_single(40, 23), &oracle);
    let cfg = SimConfig::new(cluster_twelve());
    let mk = run(&MinMakespan::new(), &trace, &cfg);
    let fifo = run(&FifoAgnostic::new(), &trace, &cfg);
    assert!(mk.unfinished_fraction() == 0.0);
    assert!(
        mk.makespan < fifo.makespan,
        "makespan policy {} vs FIFO {}",
        mk.makespan,
        fifo.makespan
    );
}

#[test]
fn fifo_het_beats_fifo_agnostic() {
    let oracle = Oracle::new();
    let trace = generate(&TraceConfig::continuous_single(1.5, 40, 29), &oracle);
    let cfg = SimConfig::new(cluster_twelve());
    let het = run(&FifoHet::new(), &trace, &cfg);
    let agn = run(&FifoAgnostic::new(), &trace, &cfg);
    let h = het.steady_state_avg_jct_hours(5, 5);
    let a = agn.steady_state_avg_jct_hours(5, 5);
    assert!(h < a, "FIFO het {h} vs agnostic {a}");
}

#[test]
fn gandiva_runs_to_completion() {
    let oracle = Oracle::new();
    let trace = generate(&TraceConfig::continuous_single(1.5, 25, 31), &oracle);
    let cfg = SimConfig::new(cluster_twelve()).with_space_sharing();
    let result = run(&GandivaPolicy::new(5), &trace, &cfg);
    assert_eq!(result.unfinished_fraction(), 0.0);
    assert_eq!(result.policy_failures, 0);
}

#[test]
fn recompute_cadence_changes_solve_count() {
    let oracle = Oracle::new();
    let trace = generate(&TraceConfig::continuous_single(2.0, 20, 37), &oracle);
    let mut cfg = SimConfig::new(small_cluster());
    let on_reset = run(&MaxMinFairness::new(), &trace, &cfg);
    cfg.recompute = RecomputeCadence::EveryNRounds(1);
    let every_round = run(&MaxMinFairness::new(), &trace, &cfg);
    assert!(
        every_round.recomputations > on_reset.recomputations,
        "every-round {} vs on-reset {}",
        every_round.recomputations,
        on_reset.recomputations
    );
}

#[test]
fn utilization_and_cost_accounting_consistent() {
    let trace = single_job_trace(3600.0);
    let cfg = SimConfig::new(small_cluster());
    let sim = Simulator::new(cfg.clone());
    let result = sim.run(&MaxMinFairness::new(), &trace);
    // One V100 busy for ~an hour: cost ~ $2.48.
    assert!(
        (result.total_cost - 2.48).abs() < 0.35,
        "cost {}",
        result.total_cost
    );
    assert!(result.utilization > 0.0 && result.utilization <= 1.0);
    // Per-job cost attribution sums to the total.
    let per_job: f64 = result.jobs.iter().map(|j| j.cost).sum();
    assert!((per_job - result.total_cost).abs() < 1e-6);
}

#[test]
fn worker_failures_trigger_resets_and_slow_jobs() {
    let oracle = Oracle::new();
    let trace = generate(&TraceConfig::continuous_single(1.0, 25, 41), &oracle);
    let base = SimConfig::new(cluster_twelve());
    let healthy = run(&MaxMinFairness::new(), &trace, &base);
    // Aggressive failures: one per ~2 hours, 1-hour repairs.
    let faulty_cfg = SimConfig::new(cluster_twelve()).with_failures(7200.0, 3600.0);
    let faulty = run(&MaxMinFairness::new(), &trace, &faulty_cfg);
    assert!(
        faulty.recomputations > healthy.recomputations,
        "failures are reset events: {} vs {}",
        faulty.recomputations,
        healthy.recomputations
    );
    assert!(
        faulty.avg_jct_hours() >= healthy.avg_jct_hours() * 0.98,
        "losing workers cannot speed jobs up: {} vs {}",
        faulty.avg_jct_hours(),
        healthy.avg_jct_hours()
    );
    assert_eq!(faulty.unfinished_fraction(), 0.0, "jobs still finish");
}

#[test]
fn failure_injection_is_deterministic() {
    // Fixed-seed determinism over the whole result, not just completions:
    // the failure/repair event stream, reduced-capacity planning, and
    // accounting must replay bit-exactly.
    let oracle = Oracle::new();
    let trace = generate(&TraceConfig::continuous_single(1.5, 20, 43), &oracle);
    let cfg = SimConfig::new(cluster_twelve()).with_failures(10_000.0, 3600.0);
    let a = run(&MaxMinFairness::new(), &trace, &cfg);
    let b = run(&MaxMinFairness::new(), &trace, &cfg);
    for (x, y) in a.jobs.iter().zip(&b.jobs) {
        assert_eq!(x.completion, y.completion);
        assert_eq!(x.cost.to_bits(), y.cost.to_bits());
    }
    assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    assert_eq!(a.total_cost.to_bits(), b.total_cost.to_bits());
    assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.recomputations, b.recomputations);
}

#[test]
fn capacity_respected_while_workers_down() {
    // A small cluster under aggressive failures: every round planned
    // while workers are down must fit the reduced capacity (the engine
    // debug-asserts per-type usage against availability; this test drives
    // that path hard), and losing workers for long stretches must slow
    // the workload down measurably.
    let oracle = Oracle::new();
    let trace = generate(&TraceConfig::continuous_single(0.8, 12, 47), &oracle);
    let healthy = run(
        &MaxMinFairness::new(),
        &trace,
        &SimConfig::new(small_cluster()),
    );
    // One failure every ~2 simulated hours, each worker down for 6 hours:
    // the cluster spends most of the run degraded.
    let faulty_cfg = SimConfig::new(small_cluster()).with_failures(7200.0, 21_600.0);
    let faulty = run(&MaxMinFairness::new(), &trace, &faulty_cfg);
    assert_eq!(faulty.unfinished_fraction(), 0.0, "jobs still finish");
    assert!(
        faulty.makespan > healthy.makespan * 1.05,
        "running mostly on reduced capacity must stretch the makespan: \
         faulty {} vs healthy {}",
        faulty.makespan,
        healthy.makespan
    );
    // Utilization is measured against the nominal fleet, so a degraded
    // cluster can never exceed the healthy run's busy fraction by much.
    assert!(faulty.utilization <= 1.0);
}

#[test]
fn repair_triggers_recompute() {
    // One long job, no other reset events after admission. Failures fire
    // identically in both runs (same seed; sampling is independent of
    // downtime); in the short-downtime run every failure also yields a
    // repair *during* the run, and each repair is a reset event that must
    // trigger an extra recomputation.
    let trace = single_job_trace(6.0 * 3600.0);
    let base = cluster_twelve();
    let long_downtime = SimConfig::new(base.clone()).with_failures(7200.0, 1.0e9);
    let short_downtime = SimConfig::new(base).with_failures(7200.0, 720.0);
    let long_run = run(&MaxMinFairness::new(), &trace, &long_downtime);
    let short_run = run(&MaxMinFairness::new(), &trace, &short_downtime);
    assert!(
        long_run.recomputations > 1,
        "failures alone must already recompute: {}",
        long_run.recomputations
    );
    assert!(
        short_run.recomputations > long_run.recomputations,
        "repairs are reset events: short-downtime {} vs never-repaired {}",
        short_run.recomputations,
        long_run.recomputations
    );
}

#[test]
fn never_placeable_jobs_are_rejected_and_counted() {
    // An 8-GPU job on a cluster whose largest type has 2 workers can never
    // be placed: the simulator must reject it at admission (so the run
    // terminates when the placeable work finishes) and count it, instead
    // of leaving a silently-stuck `unfinished` entry.
    let mut trace = single_job_trace(3600.0);
    let mut giant = trace[0].clone();
    giant.id = gavel_core::JobId(1);
    giant.scale_factor = 8;
    giant.arrival_time = 60.0;
    trace.push(giant);

    let cfg = SimConfig::new(small_cluster());
    let result = run(&MaxMinFairness::new(), &trace, &cfg);
    assert_eq!(result.never_placeable, 1);
    assert_eq!(result.jobs.len(), 2);
    let giant_outcome = result
        .jobs
        .iter()
        .find(|j| j.id == gavel_core::JobId(1))
        .unwrap();
    assert!(giant_outcome.completion.is_none());
    // The placeable job still finishes, and the simulation stops shortly
    // after instead of spinning to the time cap.
    let placed = result
        .jobs
        .iter()
        .find(|j| j.id == gavel_core::JobId(0))
        .unwrap();
    assert!(placed.completion.is_some());
    assert!(
        result.makespan < cfg.max_seconds * 0.9,
        "sim ran to the cap"
    );
}

#[test]
fn placeable_runs_report_zero_never_placeable() {
    let trace = single_job_trace(1800.0);
    let cfg = SimConfig::new(small_cluster());
    let result = run(&MaxMinFairness::new(), &trace, &cfg);
    assert_eq!(result.never_placeable, 0);
}

#[test]
fn durable_run_artifacts_recover_bit_exactly() {
    let oracle = Oracle::new();
    let trace = generate(&TraceConfig::continuous_single(6.0, 12, 5), &oracle);
    let cfg = SimConfig::new(small_cluster());
    let policy = MaxMinFairness::new();
    let sim = Simulator::new(cfg.clone());

    // The durable run matches the plain run bit-exactly...
    let plain = sim.run(&policy, &trace);
    let (durable, wal_bytes, ckpt_bytes) = sim.run_durable(&policy, &trace, 7).unwrap();
    assert_eq!(plain.service_stats.commands_rejected, 0);
    assert_eq!(durable.service_stats, plain.service_stats);
    assert_eq!(durable.makespan.to_bits(), plain.makespan.to_bits());
    assert_eq!(durable.total_cost.to_bits(), plain.total_cost.to_bits());
    assert_eq!(durable.rounds, plain.rounds);
    assert!(ckpt_bytes.is_some(), "checkpoint cadence 7 must fire");

    // ...and its on-disk artifacts reconstruct the final state.
    let (svc, report) = gavel_service::recover(
        &policy,
        &cfg,
        &gavel_service::ServiceConfig::default(),
        ckpt_bytes.as_deref(),
        &wal_bytes,
    )
    .expect("durable artifacts recover");
    assert!(report.checkpoint_used);
    assert!(report.torn.is_none());
    let recovered = svc.into_result();
    assert_eq!(recovered.makespan.to_bits(), plain.makespan.to_bits());
    assert_eq!(recovered.rounds, plain.rounds);
    assert_eq!(recovered.service_stats, plain.service_stats);
}

/// A trace holding commands the service refuses — a duplicated job id, a
/// NaN arrival — runs to completion through the logged and the durable
/// client alike, and the refusals are counted in `service_stats`.
#[test]
fn a_trace_the_service_partly_rejects_runs_to_completion() {
    let mut trace = single_job_trace(1800.0);
    let mut duplicate = trace[0].clone();
    duplicate.arrival_time = 60.0;
    let mut nan = trace[0].clone();
    nan.id = gavel_core::JobId(1);
    nan.arrival_time = f64::NAN;
    trace.extend([duplicate, nan]);

    let sim = Simulator::new(SimConfig::new(small_cluster()));
    let policy = MaxMinFairness::new();
    let (logged, _) = sim.run_logged(&policy, &trace);
    let (durable, _, _) = sim.run_durable(&policy, &trace, 0).unwrap();
    for result in [logged, durable] {
        // The duplicate's submit, then the NaN job's advance and submit.
        let stats = &result.service_stats;
        assert_eq!((stats.commands_rejected, stats.invalid_commands), (3, 2));
        assert_eq!(result.jobs.len(), 1);
        assert!(result.jobs[0].completion.is_some());
    }
}
