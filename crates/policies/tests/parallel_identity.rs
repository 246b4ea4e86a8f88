//! Parallel == serial identity for the hierarchical policy, plus
//! regression tests for the panic paths the parallel work exposed
//! (NaN-unsafe float ordering, empty FIFO peer/member sets).
//!
//! The determinism contract (see `gavel_par` and the MILP module docs)
//! promises that `GAVEL_THREADS` changes wall-clock only: the bottleneck
//! MILP's node waves are pure functions of the problem, and the probe
//! method is one serial chain, so every allocation cell and every solver
//! stat must be bit-for-bit identical under any thread count.

use gavel_core::{
    AccelIdx, Allocation, ClusterSpec, ComboSet, JobId, PairThroughput, Policy, PolicyJob,
    ThroughputTensor,
};
use gavel_par::with_threads;
use gavel_policies::{BottleneckMethod, EntityPolicy, Hierarchical};
use proptest::prelude::*;

/// Owned bundle behind a `PolicyInput`.
struct Setup {
    jobs: Vec<PolicyJob>,
    combos: ComboSet,
    tensor: ThroughputTensor,
    cluster: ClusterSpec,
}

impl Setup {
    fn input(&self) -> gavel_core::PolicyInput<'_> {
        gavel_core::PolicyInput {
            jobs: &self.jobs,
            combos: &self.combos,
            tensor: &self.tensor,
            cluster: &self.cluster,
        }
    }

    fn from_matrix(tputs: &[Vec<f64>], cluster: ClusterSpec) -> Setup {
        let jobs: Vec<PolicyJob> = (0..tputs.len())
            .map(|m| PolicyJob::simple(JobId(m as u64), 1000.0))
            .collect();
        let combos = ComboSet::singletons(&jobs.iter().map(|j| j.id).collect::<Vec<_>>());
        let rows = tputs
            .iter()
            .map(|r| r.iter().map(|&t| PairThroughput::single(t)).collect())
            .collect();
        let tensor = ThroughputTensor::new(cluster.num_types(), rows);
        Setup {
            jobs,
            combos,
            tensor,
            cluster,
        }
    }
}

fn assert_bit_identical(a: &Allocation, b: &Allocation, num_types: usize, label: &str) {
    assert_eq!(a.combos().len(), b.combos().len(), "{label}: combo counts");
    for k in 0..a.combos().len() {
        for j in 0..num_types {
            let (va, vb) = (a.get(k, AccelIdx(j)), b.get(k, AccelIdx(j)));
            assert!(
                va.to_bits() == vb.to_bits(),
                "{label}: cell ({k}, {j}) differs: {va} vs {vb}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both bottleneck methods — the MILP, whose branch-and-bound waves
    /// fan out over the pool, and the serial probe chain — produce
    /// bit-identical allocations and equal merged `SolveStats` under
    /// every thread count, on random job sets.
    #[test]
    fn hierarchical_parallel_matches_serial(
        n in 2usize..9,
        tputs in proptest::collection::vec(0.25f64..4.0, 18),
        v100s in 1usize..3,
        k80s in 1usize..3,
    ) {
        let cluster = ClusterSpec::new(&[
            ("v100", v100s, v100s, 2.48),
            ("k80", k80s, k80s, 0.45),
        ]);
        let matrix: Vec<Vec<f64>> = (0..n)
            .map(|m| vec![tputs[2 * m].max(tputs[2 * m + 1]), tputs[2 * m + 1]])
            .collect();
        let setup = Setup::from_matrix(&matrix, cluster);
        for method in [BottleneckMethod::Milp, BottleneckMethod::Probe] {
            let policy = Hierarchical::single_level().with_bottleneck(method);
            let (base_alloc, base_stats) =
                with_threads(1, || policy.compute_allocation_with_stats(&setup.input()))
                    .unwrap();
            for threads in [2usize, 4, 7] {
                let (alloc, stats) =
                    with_threads(threads, || policy.compute_allocation_with_stats(&setup.input()))
                        .unwrap();
                assert_bit_identical(
                    &base_alloc,
                    &alloc,
                    setup.cluster.num_types(),
                    &format!("{method:?}, threads={threads}"),
                );
                prop_assert_eq!(
                    base_stats, stats,
                    "{:?} stats diverged at threads={}", method, threads
                );
            }
        }
    }
}

/// A job with all-zero throughput cannot run anywhere; the hierarchical
/// policy must reject the input gracefully (it used to be able to reach
/// `partial_cmp(..).unwrap()` on the NaN floors such jobs induce).
#[test]
fn degenerate_zero_throughput_job_errors_gracefully() {
    let cluster = ClusterSpec::new(&[("v100", 1, 1, 2.48), ("k80", 1, 1, 0.45)]);
    let setup = Setup::from_matrix(&[vec![4.0, 1.0], vec![0.0, 0.0]], cluster);
    for policy in [
        Hierarchical::single_level(),
        Hierarchical::single_level().with_bottleneck(BottleneckMethod::Milp),
    ] {
        let got = policy.compute_allocation(&setup.input());
        assert!(got.is_err(), "all-zero job must be rejected, got {got:?}");
    }
}

/// SJF orders jobs by remaining duration with `total_cmp`; near-zero
/// throughputs (huge but finite durations) must not panic the comparator.
#[test]
fn sjf_survives_near_zero_throughputs() {
    let cluster = ClusterSpec::new(&[("v100", 1, 1, 2.48), ("k80", 1, 1, 0.45)]);
    let setup = Setup::from_matrix(&[vec![1e-300, 1e-300], vec![4.0, 1.0]], cluster);
    let alloc = gavel_policies::ShortestJobFirst::new()
        .compute_allocation(&setup.input())
        .unwrap();
    assert!(alloc.combos().len() >= 2);
}

/// Every job of a FIFO entity bottlenecks eventually, leaving the
/// redistribute step with an empty peer set — which must retire the
/// weight, not panic. Also covers a declared entity that owns no jobs at
/// all (`min_by_key` over an empty member set).
#[test]
fn all_bottlenecked_fifo_entities_do_not_panic() {
    let cluster = ClusterSpec::new(&[("v100", 1, 1, 2.48), ("k80", 1, 1, 0.45)]);
    let mut setup = Setup::from_matrix(&[vec![4.0, 1.0], vec![3.0, 1.0], vec![2.0, 1.0]], cluster);
    for (i, j) in setup.jobs.iter_mut().enumerate() {
        j.entity = Some(i % 2);
        j.arrival_seq = i as u64;
    }
    // Entity 2 is declared but owns no jobs.
    let policy = Hierarchical::per_entity(vec![
        (1.0, EntityPolicy::Fifo),
        (2.0, EntityPolicy::Fifo),
        (1.0, EntityPolicy::Fifo),
    ]);
    let alloc = policy.compute_allocation(&setup.input()).unwrap();
    let sfs = setup
        .jobs
        .iter()
        .map(|j| (j.id, j.scale_factor))
        .collect::<std::collections::HashMap<_, _>>();
    alloc.validate(&setup.cluster, &sfs).unwrap();
}
