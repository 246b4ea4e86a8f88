//! Pinned fixed-seed regression fingerprints.
//!
//! Bit-exact fingerprints of whole simulations: outcomes, makespan, total
//! cost, and utilization must stay **bit-identical** across round mode,
//! space sharing, physical fidelity, failures, throttled cadences,
//! hierarchical water filling, the makespan policy, and estimator-bridged
//! runs.
//!
//! The `Hierarchical::single_level` config still carries the bits
//! captured from the pre-engine (`run_rounds`/`run_ideal` twin-loop)
//! simulator. The nine `MaxMinFairness` configs were
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
            makespan: 0x4132df0dd7a40eba,
            total_cost: 0x40a546aba72ff96b,
            utilization: 0x3feb7a4853c403f2,
            rounds: 3412,
            recomputations: 54,
            jobs: 0x6b53491e1b2bed2e,
            job_costs: 0x9bb5ec1f1cf6289a,
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
            makespan: 0x4128cd6851896b3c,
            total_cost: 0x40a45e6913b80ac0,
            utilization: 0x3fe02f6fbfedd67a,
            rounds: 2257,
            recomputations: 67,
            jobs: 0xc61927fdf142909b,
            job_costs: 0x2a4eb6a60ce68caa,
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
            makespan: 0x4123c0b0d89b6d1d,
            total_cost: 0x40a05bddbde3c855,
            utilization: 0x3fe156a9b6b39921,
            rounds: 1769,
            recomputations: 51,
            jobs: 0x05a4fb425039e238,
            job_costs: 0xf3f9974d902730a5,
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
            makespan: 0x41272ca99e083394,
            total_cost: 0x40a3032d1dc565ea,
            utilization: 0x3fdf95afa2cc78b7,
            rounds: 2103,
            recomputations: 216,
            jobs: 0x2da6e656892bd604,
            job_costs: 0xb960cb1bfa9961e7,
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
            makespan: 0x4124b0425504b753,
            total_cost: 0x4090235786546247,
            utilization: 0x3fe090cb579e3cfe,
            rounds: 1877,
            recomputations: 40,
            jobs: 0x0325a7ddba06164a,
            job_costs: 0xd190a18c91196b62,
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
            makespan: 0x4122c5ab77a50c77,
            total_cost: 0x40a0106eca99d62c,
            utilization: 0x3fdd4cc9dff2832e,
            rounds: 1709,
            recomputations: 27,
            jobs: 0x237c48068e190c1a,
            job_costs: 0x54af75d3a5bc638c,
        }
    );
}

/// Estimated runs must assemble every recompute through the
/// estimator-backed entry and none through `snapshot()`.
fn assert_bridged_path_taken(r: &SimResult) {
    let s = r.snapshot_stats;
    assert_eq!(
        (s.bridged_snapshots, s.incremental_snapshots),
        (r.recomputations, 0),
        "estimated runs assemble through snapshot_bridged only: {s:?}"
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
            makespan: 0x412452fe1138df89,
            total_cost: 0x409e08b952fde665,
            utilization: 0x3fdb56b6c2ce4619,
            rounds: 1844,
            recomputations: 151,
            jobs: 0x0f11b4ab4d6ad040,
            job_costs: 0xa235d09934705ccf,
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
            makespan: 0x41219121351b0c27,
            total_cost: 0x40945453a5b5a119,
            utilization: 0x3fd50562a28577eb,
            rounds: 1594,
            recomputations: 46,
            jobs: 0x6c090b4b22fe0c9e,
            job_costs: 0x00a96a72b82b1b23,
        }
    );
    assert_bridged_path_taken(&r);
}
