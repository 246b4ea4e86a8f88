//! "Nothing moved", as one committed file: `tests/golden/decisions.txt`
//! holds one line per case, its name, then its decision columns, then its
//! work columns, each as `key=value`. Each test here computes its cases'
//! lines and compares them with the committed lines of the same names.
//!
//! - `sim/*`: fixed-seed whole runs across round mode, space sharing,
//!   physical fidelity, failures, throttled cadences, hierarchical water
//!   filling, the makespan policy and estimator-bridged runs, one test
//!   each. Decisions: [`SimResult::digest`], makespan bits, rounds,
//!   recomputations and average-JCT bits. Work: the snapshot cache's, the
//!   round mechanism's and the service's counters. Each run is also
//!   recorded beside a submission log and replayed after a serialize/parse
//!   round trip, and the replay must equal the live run in all of these.
//! - `fig12/*`: Figure 12's LAS and hierarchical solves, with and without
//!   pair rows, at 32 and 64 jobs, built as `gavel-exp fig12_scalability`
//!   builds them. Their columns are the solver's counters.
//! - `policies/*`: lines a unit test of that crate checks against this
//!   file (max-min's pivot path over `las.rs`'s random inputs).
//!
//! On a mismatch a test prints the committed and the actual line of each
//! case that moved; a change that is meant to move a decision or a
//! counter copies the actual lines into the committed file and says why.

use gavel::core::{ClusterSpec, Policy, PolicyInput, PolicyJob};
use gavel::policies::{EntityPolicy, Hierarchical, MaxMinFairness, MinMakespan};
use gavel::service::{replay, SchedulerService, ServiceConfig, SubmissionLog};
use gavel::sim::{compile_trace, RecomputeCadence, SimConfig, SimResult};
use gavel::solver::SolveStats;
use gavel::workloads::{
    build_singleton_tensor, build_tensor_with_pairs, cluster_scaled, cluster_twelve, generate,
    JobSpec, Oracle, PairOptions, TraceConfig,
};

const COMMITTED: &str = include_str!("golden/decisions.txt");

fn small_cluster() -> ClusterSpec {
    ClusterSpec::new(&[
        ("v100", 2, 2, 2.48),
        ("p100", 2, 2, 1.46),
        ("k80", 2, 2, 0.45),
    ])
}

/// Runs the trace's command stream through the service, recording each
/// command beside it in a log, replays the log after a serialize/parse
/// round trip, asserts the replay equals the live run, and returns the
/// case's line.
fn sim_line(name: &str, policy: &dyn Policy, trace: TraceConfig, cfg: SimConfig) -> String {
    let trace = generate(&trace, &Oracle::new());
    let mut svc = SchedulerService::new(cfg.clone(), ServiceConfig::default(), policy);
    let mut log = SubmissionLog::default();
    for cmd in compile_trace(&trace, &cfg) {
        let outcome = svc.apply(&cmd);
        log.record(&cmd, &outcome);
    }
    let live = svc.into_result();
    let parsed = SubmissionLog::parse(&log.serialize()).expect("log text round-trips");
    let replayed =
        replay(policy, &cfg, &ServiceConfig::default(), &parsed).expect("logged commands replay");
    let line = |r: &SimResult| {
        let (s, m, svc) = (&r.snapshot_stats, &r.mechanism_stats, &r.service_stats);
        format!(
            "sim/{name} digest={:#018x} makespan={:#018x} rounds={} recomputations={} \
             avg_jct_hours={:#018x} pair_evals={} candidates_sorted={} rows_appended={} \
             rows_dropped={} plans={} resolutions={} keys_computed={} candidates_visited={} \
             accepted={} rejected={}",
            r.digest(),
            r.makespan.to_bits(),
            r.rounds,
            r.recomputations,
            r.avg_jct_hours().to_bits(),
            s.pair_evals,
            s.candidates_sorted,
            s.rows_appended,
            s.rows_dropped,
            m.plans,
            m.resolutions,
            m.keys_computed,
            m.candidates_visited,
            svc.commands_accepted,
            svc.commands_rejected,
        )
    };
    assert_eq!(
        line(&live),
        line(&replayed),
        "replay diverges from live run"
    );
    assert_eq!(live.snapshot_stats, replayed.snapshot_stats);
    assert_eq!(live.mechanism_stats, replayed.mechanism_stats);
    assert_eq!(live.service_stats, replayed.service_stats);
    if name.starts_with("estimated") {
        // Estimated runs assemble every recompute from the estimator and
        // none from the oracle.
        let s = live.snapshot_stats;
        assert_eq!(
            (s.bridged_snapshots, s.incremental_snapshots),
            (live.recomputations, 0),
            "{name}: estimated runs assemble from the estimator only"
        );
    }
    line(&live)
}

/// Asserts each line equals the committed line of the same name.
fn check(lines: &[String]) {
    let mut moved = String::new();
    for line in lines {
        let name = line.split(' ').next();
        let pinned = COMMITTED.lines().find(|l| l.split(' ').next() == name);
        if pinned != Some(line.as_str()) {
            let pinned = pinned.unwrap_or("(no committed line)");
            moved += &format!("- {pinned}\n+ {line}\n");
        }
    }
    assert!(
        moved.is_empty(),
        "decisions or work moved:\n{moved}copy the + lines into \
         tests/golden/decisions.txt if the change is meant to move them"
    );
}

fn continuous(rate: f64, jobs: usize, seed: u64) -> TraceConfig {
    TraceConfig::continuous_single(rate, jobs, seed)
}

#[test]
fn round_mode_plain() {
    let cfg = SimConfig::new(small_cluster());
    let trace = continuous(1.2, 30, 5);
    check(&[sim_line(
        "round_mode_plain",
        &MaxMinFairness::new(),
        trace,
        cfg,
    )]);
}

#[test]
fn round_mode_space_sharing() {
    let cfg = SimConfig::new(cluster_twelve()).with_space_sharing();
    let trace = continuous(2.0, 40, 17);
    check(&[sim_line(
        "round_mode_space_sharing",
        &MaxMinFairness::new(),
        trace,
        cfg,
    )]);
}

#[test]
fn round_mode_physical_fidelity() {
    let cfg = SimConfig::new(cluster_twelve()).with_physical_fidelity(3);
    let trace = continuous(1.5, 30, 13);
    check(&[sim_line(
        "round_mode_physical_fidelity",
        &MaxMinFairness::new(),
        trace,
        cfg,
    )]);
}

#[test]
fn round_mode_worker_failures() {
    let cfg = SimConfig::new(cluster_twelve()).with_failures(7200.0, 3600.0);
    let trace = continuous(1.0, 25, 41);
    check(&[sim_line(
        "round_mode_worker_failures",
        &MaxMinFairness::new(),
        trace,
        cfg,
    )]);
}

#[test]
fn ideal_fluid_mode() {
    let mut cfg = SimConfig::new(small_cluster());
    cfg.ideal_execution = true;
    let trace = continuous(1.5, 20, 7);
    check(&[sim_line(
        "ideal_fluid_mode",
        &MaxMinFairness::new(),
        trace,
        cfg,
    )]);
}

#[test]
fn throttled_reset_cadence() {
    let mut cfg = SimConfig::new(small_cluster());
    cfg.recompute = RecomputeCadence::ThrottledResets(3);
    let trace = continuous(2.0, 25, 37);
    check(&[sim_line(
        "throttled_reset_cadence",
        &MaxMinFairness::new(),
        trace,
        cfg,
    )]);
}

#[test]
fn hierarchical_water_filling() {
    let cfg = SimConfig::new(cluster_twelve());
    let trace = continuous(1.0, 24, 11);
    let policy = Hierarchical::single_level();
    check(&[sim_line("hierarchical_water_filling", &policy, trace, cfg)]);
}

#[test]
fn makespan_policy_static_trace() {
    let cfg = SimConfig::new(cluster_twelve());
    let trace = TraceConfig::static_single(30, 23);
    check(&[sim_line(
        "makespan_policy_static_trace",
        &MinMakespan::new(),
        trace,
        cfg,
    )]);
}

#[test]
fn estimated_with_worker_failures() {
    let mut cfg = SimConfig::new(cluster_twelve())
        .with_estimated_pairs()
        .with_failures(14_400.0, 3600.0);
    cfg.seed = 5;
    let trace = continuous(1.8, 30, 53);
    check(&[sim_line(
        "estimated_with_worker_failures",
        &MaxMinFairness::new(),
        trace,
        cfg,
    )]);
}

#[test]
fn estimated_with_throttled_recomputes() {
    let mut cfg = SimConfig::new(cluster_twelve()).with_estimated_pairs();
    cfg.recompute = RecomputeCadence::ThrottledResets(4);
    let trace = continuous(2.2, 30, 59);
    let policy = MaxMinFairness::new();
    check(&[sim_line(
        "estimated_with_throttled_recomputes",
        &policy,
        trace,
        cfg,
    )]);
}

fn solve_line(name: &str, s: &SolveStats) -> String {
    format!(
        "fig12/{name} pivots_phase1={} pivots_phase2={} dual_pivots={} warm_hits={} \
         warm_falls_back={}",
        s.pivots_phase1, s.pivots_phase2, s.dual_pivots, s.warm_hits, s.warm_falls_back
    )
}

/// Figure 12's policy solves on its `n`-job input: LAS and hierarchical
/// water filling over 4 entities, each without and with pair rows.
fn fig12_lines(n: usize) -> Vec<String> {
    let oracle = Oracle::new();
    let trace = generate(&TraceConfig::static_single(n, 5), &oracle);
    let specs: Vec<JobSpec> = (trace.iter())
        .map(|t| JobSpec {
            id: t.id,
            config: t.config,
            scale_factor: 1,
        })
        .collect();
    let jobs: Vec<PolicyJob> = (trace.iter().enumerate())
        .map(|(i, t)| PolicyJob {
            entity: Some(i % 4),
            ..PolicyJob::simple(t.id, t.total_steps)
        })
        .collect();
    let cluster = cluster_scaled((n / 3).max(2));
    let pair_opts = PairOptions {
        min_aggregate: 1.3,
        max_pairs_per_job: 4,
    };
    let hier = Hierarchical::new(vec![1.0; 4], EntityPolicy::Fairness);
    let mut lines = Vec::new();
    for (pairs, (combos, tensor)) in [
        ("", build_singleton_tensor(&oracle, &specs, true)),
        (
            "_pairs",
            build_tensor_with_pairs(&oracle, &specs, true, &pair_opts),
        ),
    ] {
        let input = PolicyInput {
            jobs: &jobs,
            combos: &combos,
            tensor: &tensor,
            cluster: &cluster,
        };
        let las = MaxMinFairness::new().compute_allocation_with_stats(&input);
        lines.push(solve_line(&format!("las{pairs}/{n}"), &las.unwrap().1));
        let hier = hier.compute_allocation_with_stats(&input);
        lines.push(solve_line(&format!("hier{pairs}/{n}"), &hier.unwrap().1));
    }
    lines
}

#[test]
fn fig12_solves_at_32_jobs() {
    check(&fig12_lines(32));
}

#[test]
fn fig12_solves_at_64_jobs() {
    check(&fig12_lines(64));
}
