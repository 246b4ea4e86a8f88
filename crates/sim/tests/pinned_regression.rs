//! Pinned fixed-seed regression fingerprints.
//!
//! Bit-exact fingerprints of whole simulations: outcomes, makespan, total
//! cost, and utilization must stay **bit-identical** across round mode,
//! space sharing, physical fidelity, failures, throttled cadences,
//! hierarchical water filling, the makespan policy, and estimator-bridged
//! runs.
//!
//! `hierarchical_water_filling` was re-captured once, when water filling
//! began starting every round LP from the last optimum with `t` taken out
//! (and the first from the origin basis) instead of from the previous
//! round's basis or cold. Each round still returns an optimum and the
//! water-fill levels are unchanged, but where a round's optimum is not
//! unique a different optimal vertex comes back, so allocations and with
//! them schedules moved (rounds 1622 -> 1623). The other nine pins passed
//! unchanged. The nine `MaxMinFairness` configs were
//! re-captured once, when the policy began starting both of its LPs from
//! structural bases instead of cold: each LP still returns an optimum
//! (same `t*`, same refine objective — `las.rs`'s differential test
//! against the old cold body holds that), but where the optimum is not
//! unique a different optimal vertex comes back, so allocations and with
//! them schedules moved. Nothing else did: the two other policies' pins
//! passed unchanged across that change.
//!
//! `throttled_reset_cadence`, `estimated_with_throttled_recomputes` and
//! `estimated_with_worker_failures` were re-captured once more, when two
//! bugs of the original trace engine stopped being the default: a round
//! plan no longer runs the rows of a job that completed since the last
//! (throttled) recompute, and failures and repairs due while the cluster
//! is idle take effect at their own times instead of piling up at the
//! next busy round. The other eight pins passed unchanged.
//!
//! `makespan_policy_static_trace` was re-captured once, when the policy
//! stopped bisecting `M` over feasibility LPs and became one solve of the
//! max-min LP with `t = 1/M`: it now returns the exact optimum `M*` (the
//! bisection stopped up to 1.2% above it) and a different feasible vertex
//! at it, so schedules moved (rounds 1674 -> 1709, recomputations 23 ->
//! 27). The other ten pins passed unchanged.
//!
//! The nine round-stepping pins (every config but `ideal_fluid_mode`,
//! which never plans a round) were re-captured once, when the §5
//! mechanism began dividing a target by the seconds received *under the
//! allocation in force* instead of by a combo's lifetime seconds: after a
//! recompute a row is no longer parked (or favoured) until lifetime
//! seconds even out, so every round-stepped schedule moved.
//! `ideal_fluid_mode` passed unchanged.
//!
//! If a change intentionally alters simulation semantics, recapture the
//! fingerprints (see the `fingerprint` helper) and say so in the PR.

use gavel_core::Policy;
use gavel_policies::{Hierarchical, MaxMinFairness, MinMakespan};
use gavel_service::{replay, SchedulerService, ServiceConfig, SubmissionLog};
use gavel_sim::{compile_trace, RecomputeCadence, SimConfig, SimResult};
use gavel_workloads::{cluster_twelve, generate, Oracle, TraceConfig, TraceJob};

fn small_cluster() -> gavel_core::ClusterSpec {
    gavel_core::ClusterSpec::new(&[
        ("v100", 2, 2, 2.48),
        ("p100", 2, 2, 1.46),
        ("k80", 2, 2, 0.45),
    ])
}

fn mix(acc: u64, x: u64) -> u64 {
    (acc.rotate_left(13) ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Bit-exact fingerprint of a simulation result.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    makespan: u64,
    total_cost: u64,
    utilization: u64,
    rounds: usize,
    recomputations: usize,
    /// Fold over (id, completion bits) in arrival order.
    jobs: u64,
    /// Fold over per-job cost bits in arrival order.
    job_costs: u64,
}

fn fingerprint(r: &SimResult) -> Fingerprint {
    let mut jobs = 0u64;
    let mut job_costs = 0u64;
    for j in &r.jobs {
        jobs = mix(jobs, j.id.0);
        jobs = mix(jobs, j.completion.unwrap_or(-1.0).to_bits());
        job_costs = mix(job_costs, j.cost.to_bits());
    }
    Fingerprint {
        makespan: r.makespan.to_bits(),
        total_cost: r.total_cost.to_bits(),
        utilization: r.utilization.to_bits(),
        rounds: r.rounds,
        recomputations: r.recomputations,
        jobs,
        job_costs,
    }
}

/// Runs the trace's command stream through the service, recording each
/// command beside it in a log, then replays the log (after a
/// serialize/parse round trip) and asserts the replay is bit-identical to
/// the live run — every pinned config double-checks the submission-log
/// protocol.
fn run_replayed(policy: &dyn Policy, trace: &[TraceJob], cfg: &SimConfig) -> SimResult {
    let mut svc = SchedulerService::new(cfg.clone(), ServiceConfig::default(), policy);
    let mut log = SubmissionLog::default();
    for cmd in compile_trace(trace, cfg) {
        let outcome = svc.apply(&cmd);
        log.record(&cmd, &outcome);
    }
    let live = svc.into_result();
    let parsed = SubmissionLog::parse(&log.serialize()).expect("log text round-trips");
    let replayed =
        replay(policy, cfg, &ServiceConfig::default(), &parsed).expect("logged commands replay");
    assert_eq!(
        fingerprint(&live),
        fingerprint(&replayed),
        "replay diverges from live run"
    );
    assert_eq!(live.snapshot_stats, replayed.snapshot_stats);
    assert_eq!(live.mechanism_stats, replayed.mechanism_stats);
    assert_eq!(live.service_stats, replayed.service_stats);
    live
}

#[test]
fn round_mode_plain() {
    let oracle = Oracle::new();
    let trace = generate(&TraceConfig::continuous_single(1.2, 30, 5), &oracle);
    let cfg = SimConfig::new(small_cluster());
    let r = run_replayed(&MaxMinFairness::new(), &trace, &cfg);
    assert_eq!(
        fingerprint(&r),
        Fingerprint {
            makespan: 0x41322e345b043407,
            total_cost: 0x40a4f24cabf1ed4f,
            utilization: 0x3fec423d4049825e,
            rounds: 3286,
            recomputations: 53,
            jobs: 0x03474d57aaf09e35,
            job_costs: 0x7c68e8bc070483a3,
        }
    );
}

#[test]
fn round_mode_space_sharing() {
    let oracle = Oracle::new();
    let trace = generate(&TraceConfig::continuous_single(2.0, 40, 17), &oracle);
    let cfg = SimConfig::new(cluster_twelve()).with_space_sharing();
    let r = run_replayed(&MaxMinFairness::new(), &trace, &cfg);
    assert_eq!(
        fingerprint(&r),
        Fingerprint {
            makespan: 0x41286ed23a6f6dc6,
            total_cost: 0x40a43b098f8f3f7a,
            utilization: 0x3fe077fa316623e5,
            rounds: 2223,
            recomputations: 69,
            jobs: 0x58291eed4d5ef622,
            job_costs: 0x026f8c83282e6ad6,
        }
    );
}

#[test]
fn round_mode_physical_fidelity() {
    let oracle = Oracle::new();
    let trace = generate(&TraceConfig::continuous_single(1.5, 30, 13), &oracle);
    let cfg = SimConfig::new(cluster_twelve()).with_physical_fidelity(3);
    let r = run_replayed(&MaxMinFairness::new(), &trace, &cfg);
    assert_eq!(
        fingerprint(&r),
        Fingerprint {
            makespan: 0x4122ffb0aee0c49d,
            total_cost: 0x40a033131be23515,
            utilization: 0x3fe1af73343397ad,
            rounds: 1701,
            recomputations: 53,
            jobs: 0x0394bf16d84412c0,
            job_costs: 0xb2e4b9691f0eff53,
        }
    );
}

#[test]
fn round_mode_worker_failures() {
    let oracle = Oracle::new();
    let trace = generate(&TraceConfig::continuous_single(1.0, 25, 41), &oracle);
    let cfg = SimConfig::new(cluster_twelve()).with_failures(7200.0, 3600.0);
    let r = run_replayed(&MaxMinFairness::new(), &trace, &cfg);
    assert_eq!(
        fingerprint(&r),
        Fingerprint {
            makespan: 0x41276a3754e3a14c,
            total_cost: 0x40a2f7a97ac01de0,
            utilization: 0x3fdf920e7166c65c,
            rounds: 2125,
            recomputations: 227,
            jobs: 0x6ddcaf01e4940801,
            job_costs: 0xe6edfc82b3e7e6e8,
        }
    );
}

#[test]
fn ideal_fluid_mode() {
    let oracle = Oracle::new();
    let trace = generate(&TraceConfig::continuous_single(1.5, 20, 7), &oracle);
    let mut cfg = SimConfig::new(small_cluster());
    cfg.ideal_execution = true;
    let r = run_replayed(&MaxMinFairness::new(), &trace, &cfg);
    assert_eq!(
        fingerprint(&r),
        Fingerprint {
            makespan: 0x4124ad49a3b0cd26,
            total_cost: 0x4092d5e5d563b403,
            utilization: 0x3fe2906d029fa982,
            rounds: 0,
            recomputations: 39,
            jobs: 0xd8e4b84095d37f8a,
            job_costs: 0x4261a1d9127fa4b8,
        }
    );
}

#[test]
fn throttled_reset_cadence() {
    let oracle = Oracle::new();
    let trace = generate(&TraceConfig::continuous_single(2.0, 25, 37), &oracle);
    let mut cfg = SimConfig::new(small_cluster());
    cfg.recompute = RecomputeCadence::ThrottledResets(3);
    let r = run_replayed(&MaxMinFairness::new(), &trace, &cfg);
    assert_eq!(
        fingerprint(&r),
        Fingerprint {
            makespan: 0x4124ebf25504b754,
            total_cost: 0x40900566ac38754b,
            utilization: 0x3fe01a6958b362b1,
            rounds: 1898,
            recomputations: 40,
            jobs: 0xd736f6a5e97cc9a6,
            job_costs: 0x780ea2e7f6fc7fd7,
        }
    );
}

#[test]
fn hierarchical_water_filling() {
    let oracle = Oracle::new();
    let trace = generate(&TraceConfig::continuous_single(1.0, 24, 11), &oracle);
    let cfg = SimConfig::new(cluster_twelve());
    let r = run_replayed(&Hierarchical::single_level(), &trace, &cfg);
    assert_eq!(
        fingerprint(&r),
        Fingerprint {
            makespan: 0x4121da0e19db3bd8,
            total_cost: 0x40982314aa50805b,
            utilization: 0x3fd9b2f726a797f6,
            rounds: 1623,
            recomputations: 43,
            jobs: 0x71d0c0235c807a07,
            job_costs: 0xda65cdd8b2e358de,
        }
    );
}

#[test]
fn makespan_policy_static_trace() {
    let oracle = Oracle::new();
    let trace = generate(&TraceConfig::static_single(30, 23), &oracle);
    let cfg = SimConfig::new(cluster_twelve());
    let r = run_replayed(&MinMakespan::new(), &trace, &cfg);
    assert_eq!(
        fingerprint(&r),
        Fingerprint {
            makespan: 0x4122af2b77a50c77,
            total_cost: 0x40a00ffbc1f4eec2,
            utilization: 0x3fdd76d765ab9820,
            rounds: 1701,
            recomputations: 21,
            jobs: 0xa32d8e6146001c08,
            job_costs: 0xdc46de3450a7c774,
        }
    );
}

/// Estimated runs must assemble every recompute from the estimator and
/// none from the oracle.
fn assert_bridged_path_taken(r: &SimResult) {
    let s = r.snapshot_stats;
    assert_eq!(
        (s.bridged_snapshots, s.incremental_snapshots),
        (r.recomputations, 0),
        "estimated runs assemble from the estimator only: {s:?}"
    );
}

#[test]
fn estimated_with_worker_failures() {
    // Estimated pair throughputs with §6 profiling/refinement live, under
    // worker failures — failures and repairs are reset events, so the
    // bridged snapshot path sees frequent recomputes between refinements.
    let oracle = Oracle::new();
    let trace = generate(&TraceConfig::continuous_single(1.8, 30, 53), &oracle);
    let mut cfg = SimConfig::new(cluster_twelve())
        .with_estimated_pairs()
        .with_failures(14_400.0, 3600.0);
    cfg.seed = 5;
    let r = run_replayed(&MaxMinFairness::new(), &trace, &cfg);
    assert_eq!(
        fingerprint(&r),
        Fingerprint {
            makespan: 0x4124d0a5c8ec3101,
            total_cost: 0x409d865f14fb6b44,
            utilization: 0x3fda6db893e045b7,
            rounds: 1889,
            recomputations: 153,
            jobs: 0x2ef8e08f688a0a20,
            job_costs: 0x4bd22c75f3f41e09,
        }
    );
    assert_bridged_path_taken(&r);
}

#[test]
fn estimated_with_throttled_recomputes() {
    // Estimated pair throughputs with profiling/refinement live, under a
    // throttled recompute cadence — refinements accumulate across several
    // rounds before the next recompute consumes them, so the bridged
    // snapshot path must invalidate batched dirty sets correctly.
    let oracle = Oracle::new();
    let trace = generate(&TraceConfig::continuous_single(2.2, 30, 59), &oracle);
    let mut cfg = SimConfig::new(cluster_twelve()).with_estimated_pairs();
    cfg.recompute = RecomputeCadence::ThrottledResets(4);
    let r = run_replayed(&MaxMinFairness::new(), &trace, &cfg);
    assert_eq!(
        fingerprint(&r),
        Fingerprint {
            makespan: 0x4121ea6d121f2699,
            total_cost: 0x4094240c5a861dd0,
            utilization: 0x3fd48241e2d05040,
            rounds: 1626,
            recomputations: 48,
            jobs: 0x944ab118dae508a9,
            job_costs: 0x26afb97c9afad3b9,
        }
    );
    assert_bridged_path_taken(&r);
}
