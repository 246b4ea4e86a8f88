//! Regression tests for panic paths found while the hierarchical policy
//! was parallelized: NaN-unsafe float ordering and empty FIFO peer/member
//! sets.

use gavel_core::{
    ClusterSpec, ComboSet, JobId, PairThroughput, Policy, PolicyJob, ThroughputTensor,
};
use gavel_policies::{EntityPolicy, Hierarchical};

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

/// A job with all-zero throughput cannot run anywhere; the hierarchical
/// policy must reject the input gracefully (it used to be able to reach
/// `partial_cmp(..).unwrap()` on the NaN floors such jobs induce).
#[test]
fn degenerate_zero_throughput_job_errors_gracefully() {
    let cluster = ClusterSpec::new(&[("v100", 1, 1, 2.48), ("k80", 1, 1, 0.45)]);
    let setup = Setup::from_matrix(&[vec![4.0, 1.0], vec![0.0, 0.0]], cluster);
    let got = Hierarchical::single_level().compute_allocation(&setup.input());
    assert!(got.is_err(), "all-zero job must be rejected, got {got:?}");
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
