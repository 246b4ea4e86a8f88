//! Pinned fixed-seed regression fingerprints.
//!
//! These bit-exact fingerprints were captured from the pre-engine
//! (`run_rounds`/`run_ideal` twin-loop) simulator and pin the refactored
//! event-driven engine to it: outcomes, makespan, total cost, and
//! utilization must stay **bit-identical** across round mode, space
//! sharing, physical fidelity, failures, throttled cadences, hierarchical
//! water filling, makespan bisection, and estimator-bridged runs.
//!
//! One deliberate exception: ideal-mode *per-job* cost attribution (config
//! E's `jobcost`) was re-pinned when the equal-split bug was fixed — jobs
//! are now charged by their own worker-seconds, so a zero-rate job pays
//! nothing. E's total cost, makespan, utilization, and completions are
//! still pinned to the pre-refactor bits.
//!
//! If a change intentionally alters simulation semantics, recapture the
//! fingerprints (see the `fingerprint` helper) and say so in the PR.

use gavel_core::Policy;
use gavel_policies::{Hierarchical, MaxMinFairness, MinMakespan};
use gavel_service::{replay, ServiceConfig, SubmissionLog};
use gavel_sim::{RecomputeCadence, SimConfig, SimResult, Simulator};
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

/// Runs through the service path *with* logging, then replays the log
/// (after a serialize/parse round trip) and asserts the replay is
/// bit-identical to the live run — every pinned config double-checks the
/// submission-log protocol.
fn run_replayed(policy: &dyn Policy, trace: &[TraceJob], cfg: &SimConfig) -> SimResult {
    let (live, log) = Simulator::new(cfg.clone()).run_logged(policy, trace);
    let parsed = SubmissionLog::parse(&log.serialize()).expect("log text round-trips");
    let replayed = replay(policy, cfg, &ServiceConfig::default(), &parsed);
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
            makespan: 0x413320e820c8a106,
            total_cost: 0x40a5374ffe49e716,
            utilization: 0x3feb5d9db114742a,
            rounds: 3459,
            recomputations: 54,
            jobs: 0xcb59e952a1d78e3b,
            job_costs: 0xa82d6eb6d9206539,
        }
    );
}

#[test]
fn round_mode_space_sharing() {
    let oracle = Oracle::new();
    let trace = generate(&TraceConfig::continuous_single(2.0, 40, 17), &oracle);
    let cfg = SimConfig::new(cluster_twelve()).with_space_sharing();
    let r = run_replayed(&MaxMinFairness::with_space_sharing(), &trace, &cfg);
    assert_eq!(
        fingerprint(&r),
        Fingerprint {
            makespan: 0x4128ad9b36bb8e1a,
            total_cost: 0x40a46560e70b3d70,
            utilization: 0x3fe05a6402e033ed,
            rounds: 2246,
            recomputations: 67,
            jobs: 0x1d9b2c71cd0aa228,
            job_costs: 0x407a5501d18b4000,
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
            makespan: 0x412354d7a166fdb5,
            total_cost: 0x40a05cf464c5c8e6,
            utilization: 0x3fe1bf5b9529497a,
            rounds: 1731,
            recomputations: 51,
            jobs: 0xe09c7bfee01eadea,
            job_costs: 0x7c88e2acea2be5cf,
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
            makespan: 0x412769ef54e3a149,
            total_cost: 0x40a30531e4fd10ef,
            utilization: 0x3fdf570f805831b2,
            rounds: 2125,
            recomputations: 222,
            jobs: 0x7e0e34a0de2e0683,
            job_costs: 0x5a28e5843dfe05bc,
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
            makespan: 0x4124ad49a3745bb4,
            total_cost: 0x4092d5e5d5714fe9,
            utilization: 0x3fe2906d02d4250c,
            rounds: 0,
            recomputations: 39,
            jobs: 0x4924763ba235e3c0,
            // Re-pinned with per-worker-second cost attribution (the
            // equal-split fix); everything above is pre-refactor bits.
            job_costs: 0x554e15b0b53b50cd,
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
            makespan: 0x4124bc225504b750,
            total_cost: 0x40901c3e87276a25,
            utilization: 0x3fe0535507f4478e,
            rounds: 1881,
            recomputations: 40,
            jobs: 0x0e9e68fc6aa38661,
            job_costs: 0x4bc310bbaed4031d,
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
            makespan: 0x41232f3619db3bd6,
            total_cost: 0x40985bc256a34447,
            utilization: 0x3fd856b277ad9445,
            rounds: 1745,
            recomputations: 43,
            jobs: 0xf10d685d82051c2b,
            job_costs: 0xfef7114284eb4536,
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
            makespan: 0x4122633b77a50c77,
            total_cost: 0x40a00b4578e9ffc8,
            utilization: 0x3fde38b2f36622ad,
            rounds: 1674,
            recomputations: 23,
            jobs: 0xd7fdbebc1da51b1a,
            job_costs: 0x1399b49d18e748ab,
        }
    );
}

/// Bridged runs must route every recompute through the bridged cache and
/// exercise the partial path. On these deliberately tiny traces the
/// 12-GPU cluster colocates most of the ~10-job active set every round,
/// so under live refinement a large share of recomputes legitimately
/// cross the dirty-set threshold — partial *dominance* is a property of
/// scale and is gated by the `bridged` bench group at 1024 jobs instead.
fn assert_bridged_path_taken(r: &SimResult, min_partial_share: f64) {
    let s = r.snapshot_stats;
    assert_eq!(
        s.bridged_partial_rebuilds + s.bridged_full_rebuilds,
        r.recomputations,
        "bridged runs classify every recompute: {s:?}"
    );
    assert!(
        s.bridged_partial_rebuilds as f64
            >= min_partial_share * (s.bridged_partial_rebuilds + s.bridged_full_rebuilds) as f64,
        "partial share below {min_partial_share}: {s:?}"
    );
    assert_eq!(s.incremental_snapshots, 0, "bridged runs bypass snapshot()");
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
    let r = run_replayed(&MaxMinFairness::with_space_sharing(), &trace, &cfg);
    assert_eq!(
        fingerprint(&r),
        Fingerprint {
            makespan: 0x41240cd8f07cb294,
            total_cost: 0x409d7d827c9315dd,
            utilization: 0x3fdaf8f9ed37849a,
            rounds: 1820,
            recomputations: 149,
            jobs: 0xd958342a44cdb20d,
            job_costs: 0x47fba9c9b932a137,
        }
    );
    // Reset-driven recomputes consume small dirty sets: partial wins.
    assert_bridged_path_taken(&r, 0.4);
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
    let r = run_replayed(&MaxMinFairness::with_space_sharing(), &trace, &cfg);
    assert_eq!(
        fingerprint(&r),
        Fingerprint {
            makespan: 0x4121b4bc046e4e47,
            total_cost: 0x40949b379180c930,
            utilization: 0x3fd5081e854188f6,
            rounds: 1607,
            recomputations: 47,
            jobs: 0x94d3a37e5a238b16,
            job_costs: 0xc1c6a8a0b36e4146,
        }
    );
    // Throttling batches several rounds of refinement into each
    // recompute, so most dirty sets legitimately cross the threshold —
    // but the partial path must still fire.
    assert_bridged_path_taken(&r, 0.2);
}

#[test]
fn estimated_pair_throughputs() {
    let oracle = Oracle::new();
    let trace = generate(&TraceConfig::continuous_single(2.0, 30, 19), &oracle);
    let mut cfg = SimConfig::new(cluster_twelve()).with_space_sharing();
    cfg.estimate_pair_throughputs = true;
    let r = run_replayed(&MaxMinFairness::with_space_sharing(), &trace, &cfg);
    assert_eq!(
        fingerprint(&r),
        Fingerprint {
            makespan: 0x412336ce4f77ab8a,
            total_cost: 0x409af4cd34ce8c8f,
            utilization: 0x3fd81d90c53d87fc,
            rounds: 1748,
            recomputations: 51,
            jobs: 0xe6a9ce6a957b6631,
            job_costs: 0x2a24447d04b89013,
        }
    );
    // Without per-job profiling estimates never drift, so outside the
    // small-population warm-up every recompute stays partial.
    assert_bridged_path_taken(&r, 0.8);
}
